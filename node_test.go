package repro

import (
	"testing"

	"repro/internal/aop"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lvm"
	"repro/internal/metrics"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/transport"
	"repro/internal/weave"
)

// nodeServer is the part of a fabric (simnet.Net, transport.InProc) a node
// serves on.
type nodeServer interface {
	Serve(addr string, h transport.Handler) (func(), error)
}

// testNode describes one mobile node whose real adaptation service
// serveNode builds.
type testNode struct {
	name    string
	trusted *sign.Signer // the base whose signed pushes the node accepts
	clk     clock.Clock
	// reg, when set, instruments the receiver; red additionally serves the
	// node behind RED instruments in reg, as an observed node does, so its
	// renewal responses piggyback obs deltas.
	reg *metrics.Registry
	red bool
	// builtins carries advice factories beyond "noop", which is always
	// registered; nil means noop alone.
	builtins *core.Builtins
}

// serveNode wires the node's receiver the way cmd/node does — trust store,
// builtins, weaver, sandbox policy — and serves its RPC surface at n.name on
// srv. No lease sweeper is started: a caller either starts the grantor or
// calls Grantor().ExpireNow() after each clock step. The returned function
// stops serving.
func serveNode(tb testing.TB, srv nodeServer, n testNode) (*core.Receiver, func()) {
	tb.Helper()
	trust := sign.NewTrustStore()
	trust.Trust(n.trusted.Name, n.trusted.PublicKey())
	builtins := n.builtins
	if builtins == nil {
		builtins = core.NewBuiltins()
	}
	builtins.Register("noop", func(*core.Env, map[string]string) (aop.Body, error) {
		return aop.BodyFunc(func(*aop.Context) error { return nil }), nil
	})
	r, err := core.NewReceiver(core.ReceiverConfig{
		NodeName: n.name,
		Addr:     n.name,
		Weaver:   weave.New(),
		Trust:    trust,
		Policy:   sandbox.AllowAll(),
		Clock:    n.clk,
		Host:     lvm.HostMap{},
		Builtins: builtins,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r.Instrument(n.reg)
	mux := transport.NewMux()
	r.ServeOn(mux)
	var h transport.Handler = mux
	if n.red {
		h = transport.REDHandling(mux, n.reg)
	}
	stop, err := srv.Serve(n.name, h)
	if err != nil {
		tb.Fatal(err)
	}
	return r, stop
}
