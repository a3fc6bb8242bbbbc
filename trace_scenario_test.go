// Scenario tests for distributed lifecycle tracing: a node's whole journey —
// discovery, adaptation push (with per-retry attempt spans under injected
// loss), weaving, lease renewals and revocation — must read as ONE trace,
// stitched across the fabric by the span-context envelope. Runs on the
// deterministic network simulator; set SIMNET_SEED to replay a run exactly.
package repro

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sign"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transport"
)

// respLossCaller executes calls normally but swallows the response of the
// first call to each listed method, returning ErrUnreachable instead — the
// classic wireless failure where the install lands but the base never hears
// back. Sitting UNDER the retry policy, it forces a retry whose re-push the
// receiver answers as an idempotent refresh, all within one logical call.
type respLossCaller struct {
	inner transport.Caller
	mu    sync.Mutex
	drop  map[string]bool // method -> still to drop
}

func (c *respLossCaller) Call(ctx context.Context, to, method string, req, resp any) error {
	err := c.inner.Call(ctx, to, method, req, resp)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.drop[method] {
		c.drop[method] = false
		return fmt.Errorf("%w: %s response dropped", transport.ErrUnreachable, method)
	}
	return nil
}

// tracedWorld is a simWorld whose base and node share one tracer (they run in
// one test process; parenting across them still exercises the wire envelope).
func newTracedBase(w *simWorld, name string, tr *trace.Tracer, caller transport.Caller) *scenarioBase {
	w.t.Helper()
	signer, err := sign.NewSigner(name)
	if err != nil {
		w.t.Fatal(err)
	}
	pol := transport.NewPolicy(w.seed)
	pol.Clock = w.clk
	pol.BaseDelay = 0
	pol.MaxAttempts = 8
	b := &scenarioBase{name: name, reg: metrics.New(), signer: signer, pol: pol}
	base, err := core.NewBase(core.BaseConfig{
		Name:          name,
		Addr:          name,
		Caller:        caller,
		Signer:        signer,
		Clock:         w.clk,
		LeaseDur:      10 * time.Second,
		RenewFraction: 0.5,
		CallTimeout:   time.Hour,
		Policy:        pol,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	b.base = base
	w.t.Cleanup(base.Close)
	base.Instrument(b.reg)
	base.Trace(tr)
	mux := transport.NewMux()
	base.ServeOn(mux)
	stop, err := w.net.Serve(name, mux)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(stop)
	return b
}

// spansByName indexes a snapshot slice by span name.
func spansByName(spans []trace.SpanSnapshot) map[string][]trace.SpanSnapshot {
	out := make(map[string][]trace.SpanSnapshot)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// TestScenarioTracedLifecycle drives the full MIDAS lifecycle — advertise at
// the lookup, watcher-event adaptation, a push whose first response is lost
// (retry + idempotent refresh), weaving, a lease renewal, then revocation —
// and asserts every span of it shares the trace rooted at the advertisement.
func TestScenarioTracedLifecycle(t *testing.T) {
	w := newSimWorld(t)
	tr := trace.New(w.seed)

	// Lookup service.
	lookup := registry.NewLookup(w.clk)
	lookup.Grantor().Start(time.Second)
	t.Cleanup(lookup.Grantor().Stop)
	lookupMux := transport.NewMux()
	lookupSrv := registry.NewServer("lookup-1", lookup, lookupMux, w.net.Node("lookup-1"), w.clk)
	t.Cleanup(lookupSrv.Close)
	stop, err := w.net.Serve("lookup-1", lookupMux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)

	// Base whose first install response is lost on the "wireless" link.
	lossy := &respLossCaller{inner: w.net.Node("base-1"), drop: map[string]bool{core.MethodApplyBatch: true}}
	b := newTracedBase(w, "base-1", tr, lossy)
	if err := b.base.AddExtension(noopScenarioExt("policy", 1)); err != nil {
		t.Fatal(err)
	}

	// Node, traced.
	n := w.newNode("robot1", b.signer)
	n.receiver.Trace(tr)

	// Watch first, then advertise: the advertisement roots the trace.
	if _, err := b.base.WatchLookup(
		&registry.Client{Caller: w.net.Node("base-1"), Addr: "lookup-1", Timeout: time.Hour},
		time.Hour); err != nil {
		t.Fatal(err)
	}
	stopAdv, err := n.receiver.Advertise(
		&registry.Client{Caller: w.net.Node("robot1"), Addr: "lookup-1", Timeout: time.Hour},
		time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAdv)

	waitFor(t, "adaptation via lookup", func() bool { return n.receiver.Has("policy") })
	waitFor(t, "base adapted the node", func() bool { return len(b.base.Adapted()) == 1 })

	// At least one renewal cycle. The push's retry finishes on the base's
	// own goroutine after the node already has the extension; the renewal
	// is scheduled from that moment, so the clock may only move once the
	// base tracks the grant.
	waitFor(t, "base tracks the grant", func() bool { return b.base.ScheduledRenewals() == 1 })
	renewalsBefore := n.counter("lease.renewals")
	w.advance(6*time.Second, 500*time.Millisecond)
	waitFor(t, "a lease renewal", func() bool { return n.counter("lease.renewals") > renewalsBefore })
	// The node counts the renewal before the base has its answer and ends
	// the lease.renew span; wait for the base's side too.
	waitFor(t, "the renewal answered at the base", b.base.RenewalsQuiesced)

	// Revocation.
	if err := b.base.RemoveExtension("policy"); err != nil {
		t.Fatal(err)
	}
	if n.receiver.Has("policy") {
		t.Fatal("extension still installed after revoke")
	}

	// --- The whole lifecycle must be ONE trace. ---
	roots := tr.Spans(trace.Filter{Name: "discovery.advertise"})
	if len(roots) != 1 {
		t.Fatalf("got %d discovery.advertise spans, want 1", len(roots))
	}
	root := roots[0]
	if root.ParentID != "" {
		t.Fatalf("advertise span has a parent: %+v", root)
	}
	lifecycle := tr.Spans(trace.Filter{TraceID: root.TraceID})
	byName := spansByName(lifecycle)

	wantOne := []string{"base.adapt", "base.push", "base.revoke", "ext.withdraw", "weave.insert", "weave.withdraw"}
	for _, name := range wantOne {
		if len(byName[name]) != 1 {
			t.Errorf("trace %s: got %d %q spans, want 1 (have: %v)", root.TraceID, len(byName[name]), name, names(lifecycle))
		}
	}

	// The lost response forced a retry: two attempts under the push's call,
	// and two installs at the receiver — a real one and an idempotent refresh.
	if got := len(byName["rpc.attempt"]); got < 2 {
		t.Errorf("got %d rpc.attempt spans in the lifecycle trace, want >= 2 (install retry)", got)
	}
	installs := byName["ext.install"]
	if len(installs) != 2 {
		t.Fatalf("got %d ext.install spans, want 2 (install + refresh)", len(installs))
	}
	outcomes := map[string]int{}
	for _, s := range installs {
		outcomes[s.Tags["outcome"]]++
	}
	if outcomes["install"] != 1 || outcomes["refresh"] != 1 {
		t.Errorf("install outcomes = %v, want one install and one refresh", outcomes)
	}
	if len(byName["lease.renew"]) < 1 {
		t.Errorf("no lease.renew span joined the lifecycle trace")
	}

	// Parenting: the adaptation hangs off the advertisement.
	adapt := byName["base.adapt"][0]
	if adapt.TraceID != root.TraceID {
		t.Errorf("base.adapt in trace %s, want %s", adapt.TraceID, root.TraceID)
	}
	push := byName["base.push"][0]
	if push.ParentID != adapt.SpanID {
		t.Errorf("base.push parent = %s, want the adapt span %s", push.ParentID, adapt.SpanID)
	}

	// Open spans must not leak: everything in the lifecycle trace ended.
	for _, s := range lifecycle {
		if s.EndUnixNano == 0 {
			t.Errorf("span %s (%s) never ended", s.Name, s.SpanID)
		}
	}

	// --- The trace is retrievable over the fabric (midasctl trace path). ---
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := transport.Invoke[core.TraceReq, core.TraceResp](ctx, w.net.Node("ctl"), "robot1",
		core.MethodTrace, core.TraceReq{Query: "policy"})
	if err != nil {
		t.Fatal(err)
	}
	got := spansByName(resp.Spans)
	if len(got["ext.install"]) != 2 || len(got["base.push"]) != 1 {
		t.Errorf("midas.trace query 'policy' returned %v, want the full lifecycle", names(resp.Spans))
	}
	for _, s := range resp.Spans {
		// Admission runs when the extension is added at the base, before any
		// node exists — its span starts a trace of its own.
		if s.Name == "base.admit" {
			continue
		}
		if s.TraceID != root.TraceID {
			t.Errorf("queried span %s belongs to trace %s, want %s", s.Name, s.TraceID, root.TraceID)
		}
	}
	// Structured events of the trace ride along (the lease renewals at least).
	hasLeaseEvent := false
	for _, e := range resp.Events {
		if e.Component == "lease" {
			hasLeaseEvent = true
		}
	}
	if !hasLeaseEvent {
		t.Errorf("no lease events returned with the trace (got %d events)", len(resp.Events))
	}

	// Unknown queries return nothing rather than everything.
	empty, err := transport.Invoke[core.TraceReq, core.TraceResp](ctx, w.net.Node("ctl"), "robot1",
		core.MethodTrace, core.TraceReq{Query: "no-such-ext"})
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Spans) != 0 {
		t.Errorf("query for unknown extension returned %d spans", len(empty.Spans))
	}
}

func names(spans []trace.SpanSnapshot) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestScenarioTraceDeterministicReplay pins the determinism contract: under
// the manual clock and a fixed seed, two identical scripted runs produce
// byte-identical span snapshots — IDs, ordering, tags, errors and all. The
// run is fully synchronous (no simulated time passes) so the tracer's RNG
// draw order is pinned.
func TestScenarioTraceDeterministicReplay(t *testing.T) {
	seed := scenarioSeed(t)
	epoch := time.Unix(0, 0)
	run := func() []trace.SpanSnapshot {
		clk := clock.NewManual(epoch)
		net := simnet.New(clk, seed)
		defer net.Close()
		w := &simWorld{t: t, clk: clk, net: net, seed: seed}
		tr := trace.New(seed)
		tr.SetNow(func() time.Time { return epoch })

		b := newTracedBase(w, "base-1", tr, w.net.Node("base-1"))
		n := w.newNode("robot1", b.signer)
		n.receiver.Trace(tr)
		net.SetDefault(simnet.LinkProfile{Loss: 0.3, Dup: 0.2})

		if err := b.base.AddExtension(noopScenarioExt("policy", 1)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := b.base.AdaptNode("robot1", "robot1"); err == nil {
				break
			}
		}
		if n.receiver.Has("policy") {
			_ = b.base.RemoveExtension("policy")
		}
		return tr.Spans(trace.Filter{})
	}

	first := run()
	second := run()
	if len(first) == 0 {
		t.Fatal("scripted run recorded no spans")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed, different traces:\nrun1: %v\nrun2: %v", names(first), names(second))
	}
}

// TestScenarioTraceSentinelOverSimnet pins sentinel errors end to end on the
// simulated fabric: a typed error crossing the simnet boundary — here one
// renewal's outcome in a batch, rebuilt the way the base rebuilds it — must
// still satisfy errors.Is at the caller.
func TestScenarioTraceSentinelOverSimnet(t *testing.T) {
	w := newSimWorld(t)
	b := w.newBase("base-1", nil)
	_ = w.newNode("robot1", b.signer)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := transport.Invoke[core.RenewBatchReq, core.RenewBatchResp](ctx, w.net.Node("base-1"), "robot1",
		core.MethodRenewBatch, core.RenewBatchReq{Items: []core.RenewExtReq{{LeaseID: "bogus", DurMillis: 1000}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 1 || resp.Items[0].Err == "" {
		t.Fatalf("renewal of a bogus lease succeeded: %+v", resp.Items)
	}
	err = transport.NewRemoteError(core.MethodRenewBatch, resp.Items[0].Err)
	if !errors.Is(err, lease.ErrUnknownLease) {
		t.Fatalf("renewal of a bogus lease over simnet: errors.Is(err, lease.ErrUnknownLease) = false, err = %v", err)
	}
}
