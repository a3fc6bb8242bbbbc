package lease

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
)

// waitManualTimers blocks until the manual clock has at least n armed timers,
// i.e. the renewer goroutine has reached its next wait.
func waitManualTimers(t *testing.T, clk *clock.Manual, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clk.PendingTimers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %d pending timers (have %d)", n, clk.PendingTimers())
		}
		time.Sleep(time.Millisecond)
	}
}

// A renewal arriving exactly at the expiry instant is still valid: the lease
// lapses only strictly after its expiry.
func TestRenewExactlyAtExpiry(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	g := NewGrantor(clk)
	l := g.Grant(context.Background(), 10*time.Second, nil)

	clk.Advance(10 * time.Second) // now == expiry, not past it
	renewed, err := g.Renew(context.Background(), l.ID, 10*time.Second)
	if err != nil {
		t.Fatalf("renew exactly at expiry: %v", err)
	}
	if want := time.Unix(20, 0); !renewed.Expiry.Equal(want) {
		t.Fatalf("new expiry %v, want %v", renewed.Expiry, want)
	}

	clk.Advance(10*time.Second + time.Nanosecond) // now strictly past expiry
	if _, err := g.Renew(context.Background(), l.ID, 10*time.Second); !errors.Is(err, ErrExpired) {
		t.Fatalf("renew past expiry: %v, want ErrExpired", err)
	}
}

// A grantor may return a shorter lease than requested; the renewer must
// adopt it and renew on the shorter period, or the lease lapses between
// renewals.
func TestRenewerAdoptsShorterLease(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	calls := make(chan time.Time, 8)
	renew := func(id ID, d time.Duration) (Lease, error) {
		calls <- clk.Now()
		// Grant only 4s of the requested 10s.
		return Lease{ID: id, Duration: 4 * time.Second}, nil
	}
	r := NewRenewer(clk, Lease{ID: "l", Duration: 10 * time.Second}, renew, nil)
	r.Start()
	defer r.Stop()

	waitManualTimers(t, clk, 1)
	clk.Advance(5 * time.Second) // half of the original 10s
	if at := <-calls; !at.Equal(time.Unix(5, 0)) {
		t.Fatalf("first renewal at %v, want t=5s", at)
	}

	waitManualTimers(t, clk, 1)
	clk.Advance(2 * time.Second) // half of the *granted* 4s, not 5s
	select {
	case at := <-calls:
		if !at.Equal(time.Unix(7, 0)) {
			t.Fatalf("second renewal at %v, want t=7s (shorter lease adopted)", at)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("renewer kept the requested duration instead of the granted one")
	}
}
