// Package discovery implements the announce/listen protocol through which
// nodes find lookup services when they enter a new environment (the Jini
// discovery role). The carrier is an in-process bus scoped by the mobility
// simulator; StartFuncAnnouncer beacons over any other carrier a caller
// supplies.
package discovery

import (
	"context"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Announcement advertises a lookup service.
type Announcement struct {
	// Name identifies the environment, e.g. "hall-1".
	Name string
	// LookupAddr is the transport address of the lookup service.
	LookupAddr string
	// Area optionally names the physical area the announcement covers.
	Area string
}

// Bus is an in-process announcement channel. Subscribers receive every
// announcement published after they subscribed; an optional filter restricts
// delivery (the mobility layer filters by area/range).
type Bus struct {
	mu     sync.Mutex
	subs   map[int]*busSub
	nextID int
	m      busMetrics
	tracer *trace.Tracer
}

// busMetrics counts announcement traffic; nil-safe no-ops until Instrument.
type busMetrics struct {
	announces   *metrics.Counter
	deliveries  *metrics.Counter
	subscribers *metrics.Gauge
}

// Instrument records published announcements, per-subscriber deliveries (after
// filtering) and the live-subscriber gauge in reg. A nil reg is a no-op.
func (b *Bus) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m = busMetrics{
		announces:   reg.Counter("discovery.announces"),
		deliveries:  reg.Counter("discovery.deliveries"),
		subscribers: reg.Gauge("discovery.subscribers"),
	}
	b.m.subscribers.Set(int64(len(b.subs)))
}

type busSub struct {
	fn     func(Announcement)
	filter func(Announcement) bool
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{subs: make(map[int]*busSub)}
}

// Trace logs published announcements to tr's structured event ring under the
// "discovery" component. A nil tr is a no-op.
func (b *Bus) Trace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tracer = tr
}

// Announce publishes a to all current subscribers (synchronously).
func (b *Bus) Announce(a Announcement) {
	b.mu.Lock()
	subs := make([]*busSub, 0, len(b.subs))
	for _, s := range b.subs {
		subs = append(subs, s)
	}
	m := b.m
	tr := b.tracer
	b.mu.Unlock()
	m.announces.Inc()
	tr.Eventf(nil, "discovery", "announce %s (lookup %s, area %q) to %d subscribers", a.Name, a.LookupAddr, a.Area, len(subs))
	for _, s := range subs {
		if s.filter == nil || s.filter(a) {
			m.deliveries.Inc()
			s.fn(a)
		}
	}
}

// Subscribe registers fn (with an optional filter); the returned function
// unsubscribes.
func (b *Bus) Subscribe(fn func(Announcement), filter func(Announcement) bool) func() {
	b.mu.Lock()
	b.nextID++
	id := b.nextID
	b.subs[id] = &busSub{fn: fn, filter: filter}
	b.m.subscribers.Set(int64(len(b.subs)))
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		delete(b.subs, id)
		b.m.subscribers.Set(int64(len(b.subs)))
		b.mu.Unlock()
	}
}

// Announcer periodically re-publishes an announcement, the way a Jini lookup
// service beacons its presence.
type Announcer struct {
	stop chan struct{}
	done chan struct{}
}

// StartAnnouncer announces a on bus every interval until Stop.
func StartAnnouncer(bus *Bus, a Announcement, interval time.Duration) *Announcer {
	return StartFuncAnnouncer(func(context.Context) error {
		bus.Announce(a)
		return nil
	}, interval, nil, nil)
}

// StartFuncAnnouncer runs announce immediately and then every interval until
// Stop, timed by clk (default the real clock). A non-nil pol retries each
// failed announcement with backoff — note pol's RetryIf decides what is worth
// retrying; announce carriers whose errors are not transport-level should set
// it. The context passed to announce is canceled on Stop, so an in-flight
// attempt or backoff wait aborts promptly.
func StartFuncAnnouncer(announce func(context.Context) error, interval time.Duration, pol *transport.Policy, clk clock.Clock) *Announcer {
	if clk == nil {
		clk = clock.Real{}
	}
	an := &Announcer{stop: make(chan struct{}), done: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-an.stop
		cancel()
	}()
	once := func() {
		if pol != nil {
			_ = pol.Do(ctx, announce)
			return
		}
		_ = announce(ctx)
	}
	go func() {
		defer close(an.done)
		once()
		for {
			select {
			case <-an.stop:
				return
			case <-clk.After(interval):
				once()
			}
		}
	}()
	return an
}

// Stop halts the announcer and waits for it to exit.
func (a *Announcer) Stop() {
	close(a.stop)
	<-a.done
}
