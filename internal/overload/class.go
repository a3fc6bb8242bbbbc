package overload

// Class is a request's priority band. When the server is saturated, admission
// runs strictly by class: every queued keepalive is granted before any queued
// mutation, and every mutation before any read. The ordering encodes what the
// platform can least afford to lose — a missed renewal expires a lease and
// degrades a node (minutes of repair), a deferred mutation merely delays an
// adaptation, and a shed read costs one dashboard refresh.
type Class int

// Priority bands, highest first.
const (
	// ClassKeepalive is lease-keeping traffic: renewals and the anti-entropy
	// inventory sweep. Shedding it converts congestion into expiries.
	ClassKeepalive Class = iota
	// ClassMutation is state-changing traffic: pushes, adaptations, revokes,
	// registrations.
	ClassMutation
	// ClassRead is observational traffic: lookups, status, metrics, analyses.
	ClassRead

	numClasses = 3
)

// String renders the class for metric labels and span tags.
func (c Class) String() string {
	switch c {
	case ClassKeepalive:
		return "keepalive"
	case ClassMutation:
		return "mutation"
	default:
		return "read"
	}
}

// defaultClasses maps the platform's RPC surface onto the bands. The method
// names are string literals rather than the core/registry constants so this
// package sits below both (core imports overload for the fleet view).
var defaultClasses = map[string]Class{
	// Keepalive: lease renewals (batched, lookup-service) and the
	// reconciliation inventory sweep.
	"midas.renewBatch":  ClassKeepalive,
	"midas.inventory":   ClassKeepalive,
	"lookup.renew":      ClassKeepalive,
	"lookup.renewWatch": ClassKeepalive,

	// Mutations: extension pushes, adaptation lifecycle, service registry
	// writes.
	"midas.applyBatch":  ClassMutation,
	"base.post":         ClassMutation,
	"base.onservice":    ClassMutation,
	"base.roam":         ClassMutation,
	"lookup.register":   ClassMutation,
	"lookup.deregister": ClassMutation,
	"lookup.watch":      ClassMutation,
	"lookup.unwatch":    ClassMutation,

	// Reads: lookups, status surfaces, observability pulls.
	"midas.list":    ClassRead,
	"midas.metrics": ClassRead,
	"midas.trace":   ClassRead,
	"base.query":    ClassRead,
	"base.status":   ClassRead,
	"base.fleet":    ClassRead,
	"base.analyze":  ClassRead,
	"lookup.find":   ClassRead,
}

// Classify maps a method name to its priority class. Unknown methods land in
// the middle band: safer than top (an unclassified method cannot starve
// keepalives) and safer than bottom (it is not silently first to shed).
func Classify(method string) Class {
	if c, ok := defaultClasses[method]; ok {
		return c
	}
	return ClassMutation
}
