package core

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// keepalive holds one lookup lease alive from the holder side: a node's
// registration (Receiver.Advertise) or a base's arrival watch
// (Base.WatchLookup). A process holds at most one of each, so each runs on
// its own goroutine rather than a renewal scheduler. It renews at half the
// lease. When a renewal fails (the lookup restarted, or swept the lease
// during a partition) it establishes the lease afresh at once, then once per
// half-period until that succeeds or stop runs.
type keepalive struct {
	clk       clock.Clock
	dur       time.Duration
	establish func() (string, error) // (re-)creates the lease, returning its ID
	renew     func(id string) error  // extends lease id by dur
	renews    *metrics.Counter       // lease.renews_sent
	failures  *metrics.Counter       // lease.renew_failures
	tracer    *trace.Tracer

	quit chan struct{}
	done chan struct{}
	once sync.Once
}

// startKeepalive establishes the lease once and, if that succeeds, keeps it
// alive until stop. A nil reg or tr is a no-op.
func startKeepalive(clk clock.Clock, dur time.Duration, reg *metrics.Registry, tr *trace.Tracer,
	establish func() (string, error), renew func(id string) error) (*keepalive, string, error) {
	id, err := establish()
	if err != nil {
		return nil, "", err
	}
	k := &keepalive{
		clk:       clk,
		dur:       dur,
		establish: establish,
		renew:     renew,
		renews:    reg.Counter("lease.renews_sent"),
		failures:  reg.Counter("lease.renew_failures"),
		tracer:    tr,
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go k.run(id)
	return k, id, nil
}

func (k *keepalive) run(id string) {
	defer close(k.done)
	half := k.dur / 2
	if half <= 0 {
		half = time.Millisecond
	}
	for {
		if !k.wait(half) {
			return
		}
		err := k.renew(id)
		if err == nil {
			k.renews.Inc()
			continue
		}
		k.failures.Inc()
		k.tracer.Eventf(nil, "lease", "renewal of %s failed for good: %v", id, err)
		for {
			if id, err = k.establish(); err == nil {
				break
			}
			if !k.wait(half) {
				return
			}
		}
	}
}

// wait sleeps d on the keepalive's clock and reports false if stop ran first.
func (k *keepalive) wait(d time.Duration) bool {
	select {
	case <-k.quit:
		return false
	case <-k.clk.After(d):
		return true
	}
}

// stop halts the keepalive and waits for its goroutine to exit, including
// one that is re-establishing the lease. Safe to call more than once.
func (k *keepalive) stop() {
	k.once.Do(func() { close(k.quit) })
	<-k.done
}
