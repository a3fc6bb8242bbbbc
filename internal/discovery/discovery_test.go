package discovery

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

func TestBusAnnounceSubscribe(t *testing.T) {
	bus := NewBus()
	var mu sync.Mutex
	var got []Announcement
	cancel := bus.Subscribe(func(a Announcement) {
		mu.Lock()
		got = append(got, a)
		mu.Unlock()
	}, nil)

	bus.Announce(Announcement{Name: "hall-1", LookupAddr: "lookup-1"})
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 1 || got[0].Name != "hall-1" {
		t.Fatalf("got = %v", got)
	}

	cancel()
	bus.Announce(Announcement{Name: "hall-2"})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Error("unsubscribed listener received announcement")
	}
}

func TestBusFilter(t *testing.T) {
	bus := NewBus()
	var got []Announcement
	bus.Subscribe(func(a Announcement) { got = append(got, a) },
		func(a Announcement) bool { return a.Area == "north" })
	bus.Announce(Announcement{Name: "a", Area: "north"})
	bus.Announce(Announcement{Name: "b", Area: "south"})
	if len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("got = %v", got)
	}
}

func TestAnnouncerRepeats(t *testing.T) {
	bus := NewBus()
	var mu sync.Mutex
	count := 0
	bus.Subscribe(func(Announcement) {
		mu.Lock()
		count++
		mu.Unlock()
	}, nil)
	an := StartAnnouncer(bus, Announcement{Name: "hall"}, 5*time.Millisecond)
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		n := count
		mu.Unlock()
		if n >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("announcer did not repeat")
		case <-time.After(time.Millisecond):
		}
	}
	an.Stop()
}

// A failing announcement is retried with backoff by the policy and recovers
// within one interval — a node entering a hall on a lossy link still finds
// the lookup service without waiting a full announce period.
func TestFuncAnnouncerRetriesFailedAnnounce(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	var calls atomic.Int64
	announce := func(context.Context) error {
		if calls.Add(1) < 3 {
			return errors.New("send failed")
		}
		return nil
	}
	pol := transport.NewPolicy(1)
	pol.BaseDelay = 0 // retry back-to-back; the test drives no clock
	pol.MaxAttempts = 5
	pol.RetryIf = func(error) bool { return true }
	an := StartFuncAnnouncer(announce, time.Minute, pol, clk)
	defer an.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("announce attempts = %d, want 3 (two retries)", calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// Success reached: no further attempts until the next interval.
	time.Sleep(20 * time.Millisecond)
	if calls.Load() != 3 {
		t.Fatalf("announcer kept retrying after success: %d", calls.Load())
	}
}

// Stop aborts an in-flight retry backoff instead of waiting it out.
func TestFuncAnnouncerStopCancelsInFlightRetry(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	var calls atomic.Int64
	announce := func(context.Context) error {
		calls.Add(1)
		return errors.New("always failing")
	}
	pol := transport.NewPolicy(1)
	pol.BaseDelay = time.Hour // backoff the manual clock will never run out
	pol.Clock = clk
	pol.MaxAttempts = 10
	pol.RetryIf = func(error) bool { return true }
	an := StartFuncAnnouncer(announce, time.Minute, pol, clk)

	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("announcer never attempted")
		}
		time.Sleep(time.Millisecond)
	}
	stopped := make(chan struct{})
	go func() {
		an.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on an in-flight retry backoff")
	}
}
