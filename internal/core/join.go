package core

import (
	"context"
	"time"

	"repro/internal/discovery"
	"repro/internal/registry"
)

// AutoJoin keeps the receiver's adaptation service advertised at every
// lookup service it can currently hear: each discovery announcement
// (re-)registers the service there, so periodic beacons double as lease
// renewals. When the node moves out of an environment it stops hearing the
// beacons, the registration lease lapses at that lookup, and the
// environment's base observes the departure — no explicit leave protocol.
//
// clientFor builds a lookup client for an announced address (it typically
// binds the node's own transport caller); filter restricts which
// announcements are audible (the mobility world's range oracle). The
// returned function stops joining.
func (r *Receiver) AutoJoin(bus *discovery.Bus, clientFor func(lookupAddr string) *registry.Client, dur time.Duration, attrs map[string]string, filter func(discovery.Announcement) bool) func() {
	item := registry.ServiceItem{
		ID:    r.cfg.NodeName,
		Name:  AdaptationService,
		Addr:  r.cfg.Addr,
		Attrs: attrs,
	}
	cancel := bus.Subscribe(func(a discovery.Announcement) {
		client := clientFor(a.LookupAddr)
		if client == nil {
			return
		}
		// Registration is idempotent (same service ID refreshes); a failed
		// attempt is retried naturally on the next beacon.
		_, _ = client.Register(context.TODO(), item, dur)
	}, filter)
	return cancel
}
