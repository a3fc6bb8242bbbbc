package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/testutil"
)

// The keepalive renews at half the lease, re-establishes the lease once a
// renewal fails, and a stop that lands while that re-establish is in flight
// returns only after it finished, with no attempt after it.
func TestKeepaliveStopDuringReestablish(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	reg := metrics.New()
	var establishes, renews atomic.Int32
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	establish := func() (string, error) {
		if establishes.Add(1) == 1 {
			return "lease-1", nil
		}
		entered <- struct{}{}
		<-release
		return "", errors.New("lookup unreachable")
	}
	renew := func(string) error {
		if renews.Add(1) == 1 {
			return nil
		}
		return errors.New("unknown lease")
	}
	k, id, err := startKeepalive(clk, 10*time.Second, reg, nil, establish, renew)
	if err != nil || id != "lease-1" {
		t.Fatalf("startKeepalive = %q, %v", id, err)
	}
	armed := func() bool { return clk.PendingTimers() == 1 }

	testutil.WaitFor(t, "first renewal armed", armed)
	clk.Advance(5 * time.Second)
	testutil.WaitForCounter(t, reg, "lease.renews_sent", 1)
	testutil.WaitFor(t, "second renewal armed", armed)
	clk.Advance(5 * time.Second)
	<-entered // the renewal failed and a re-establish is in flight

	stopped := make(chan struct{})
	go func() { k.stop(); close(stopped) }()
	select {
	case <-stopped:
		t.Fatal("stop returned while a re-establish was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not return after the re-establish finished")
	}
	k.stop() // idempotent

	if n := establishes.Load(); n != 2 {
		t.Fatalf("%d establishes, want 2 (none after stop)", n)
	}
	if n := reg.CounterValue("lease.renew_failures"); n != 1 {
		t.Fatalf("lease.renew_failures = %d, want 1", n)
	}
}
