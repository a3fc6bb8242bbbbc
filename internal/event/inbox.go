package event

import (
	"context"
	"sync"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Inbox turns the at-least-once, possibly reordered notification delivery of
// a lossy mobile link into exactly-once, in-order *effects* on the listener
// side. It tracks per source the next expected sequence number: duplicates
// (already applied or already buffered) are dropped, early arrivals are held
// back until the gap before them fills.
type Inbox struct {
	apply func(Notification)

	mu      sync.Mutex
	sources map[string]*seqWindow
	m       inboxMetrics
	tracer  *trace.Tracer
}

type seqWindow struct {
	next  int64                  // lowest sequence number not yet applied
	ahead map[int64]Notification // arrived out of order, waiting for the gap
}

// inboxMetrics counts dedup/reorder traffic; nil-safe no-ops until Instrument.
type inboxMetrics struct {
	applied    *metrics.Counter
	duplicates *metrics.Counter
	reorders   *metrics.Counter
}

// NewInbox returns an inbox invoking apply for each unique notification, in
// sequence order per source. apply runs under the inbox lock, so it must not
// call back into the inbox.
func NewInbox(apply func(Notification)) *Inbox {
	return &Inbox{apply: apply, sources: make(map[string]*seqWindow)}
}

// Instrument records applied, duplicate and out-of-order notifications in
// reg. A nil reg is a no-op.
func (in *Inbox) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.m = inboxMetrics{
		applied:    reg.Counter("event.inbox_applied"),
		duplicates: reg.Counter("event.inbox_duplicates"),
		reorders:   reg.Counter("event.inbox_reorders"),
	}
}

// Trace logs accepted, duplicate and held-back notifications to tr's
// structured event ring under the "event" component, each stamped with the
// publisher's trace ID. A nil tr is a no-op.
func (in *Inbox) Trace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.tracer = tr
}

// eventCtx reconstitutes a context carrying n's span context so ring events
// are stamped with the publisher's trace ID.
func eventCtx(n Notification) context.Context {
	return trace.NewContext(context.Background(), n.Trace)
}

// Deliver feeds one received notification through the dedup window. It
// reports whether n was fresh (first sighting); the apply callback may run
// zero or more times depending on which gaps n fills.
func (in *Inbox) Deliver(n Notification) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	w, ok := in.sources[n.Source]
	if !ok {
		w = &seqWindow{next: 1, ahead: make(map[int64]Notification)}
		in.sources[n.Source] = w
	}
	if n.Seq < w.next {
		in.m.duplicates.Inc()
		in.tracer.Eventf(eventCtx(n), "event", "drop duplicate %s seq %d from %s (already applied)", n.Kind, n.Seq, n.Source)
		return false
	}
	if _, held := w.ahead[n.Seq]; held {
		in.m.duplicates.Inc()
		in.tracer.Eventf(eventCtx(n), "event", "drop duplicate %s seq %d from %s (already buffered)", n.Kind, n.Seq, n.Source)
		return false
	}
	if n.Seq > w.next {
		in.m.reorders.Inc()
		in.tracer.Eventf(eventCtx(n), "event", "hold early %s seq %d from %s (want %d)", n.Kind, n.Seq, n.Source, w.next)
	}
	w.ahead[n.Seq] = n
	for {
		nn, ready := w.ahead[w.next]
		if !ready {
			break
		}
		delete(w.ahead, w.next)
		w.next++
		in.m.applied.Inc()
		in.tracer.Eventf(eventCtx(nn), "event", "apply %s seq %d from %s", nn.Kind, nn.Seq, nn.Source)
		in.apply(nn)
	}
	return true
}

// Pending returns how many early arrivals are held back across all sources.
func (in *Inbox) Pending() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, w := range in.sources {
		n += len(w.ahead)
	}
	return n
}

// Register serves the inbox as a notification listener method on mux, the
// shape dispatchers deliver to.
func (in *Inbox) Register(mux *transport.Mux, method string) {
	transport.Register(mux, method, func(_ context.Context, n Notification) (Ack, error) {
		in.Deliver(n)
		return Ack{}, nil
	})
}
