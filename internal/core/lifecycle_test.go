package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/sign"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Lifecycle counters count successes only; a failure shows on its span's
// error or as an event in the tracer's ring.

// applyFailCaller fails every midas.applyBatch while fail is set and passes
// everything else through, so inventories still answer.
type applyFailCaller struct {
	inner transport.Caller
	fail  atomic.Bool
}

func (c *applyFailCaller) Call(ctx context.Context, to, method string, req, resp any) error {
	if method == MethodApplyBatch && c.fail.Load() {
		return transport.ErrUnreachable
	}
	return c.inner.Call(ctx, to, method, req, resp)
}

// newCountingBase builds a second base at the cluster's base address, calling
// out through caller, instrumented and traced.
func newCountingBase(t *testing.T, c *cluster, caller transport.Caller) (*Base, *metrics.Registry, *trace.Tracer) {
	t.Helper()
	b, err := NewBase(BaseConfig{
		Name:        "base-1b",
		Addr:        "base-1",
		Caller:      caller,
		Signer:      c.base.Signer(),
		LeaseDur:    time.Minute,
		CallTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	reg, tr := metrics.New(), trace.New(1)
	b.Instrument(reg)
	b.Trace(tr)
	return b, reg, tr
}

func TestFailedRevokesAreNotCounted(t *testing.T) {
	c := newCluster(t, time.Minute)
	defer c.close()
	caller := &applyFailCaller{inner: c.fabric.Node("base-1")}
	b, reg, tr := newCountingBase(t, c, caller)
	if err := b.AddExtension(noopExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.AdaptNode(context.Background(), "robot1", "robot1"); err != nil {
		t.Fatal(err)
	}

	// The policy set drops the extension, but the revoke cannot reach the
	// node: nothing was revoked, and the base.revoke span says why.
	caller.fail.Store(true)
	if err := b.RemoveExtension("policy"); err != nil {
		t.Fatal(err)
	}
	if !c.receiver.Has("policy") {
		t.Fatal("revoke landed through a failing caller")
	}
	if got := reg.CounterValue("base.revokes"); got != 0 {
		t.Fatalf("base.revokes = %d after a failed revoke, want 0", got)
	}
	spans := tr.Spans(trace.Filter{Name: "base.revoke"})
	if len(spans) != 1 || spans[0].Err == "" {
		t.Fatalf("base.revoke spans = %+v, want one carrying the error", spans)
	}

	// Reconciliation finds the orphan, but its revoke fails as well.
	res := b.ReconcileNow(context.Background())["robot1"]
	if res.Err == "" || len(res.Revoked) != 0 {
		t.Fatalf("reconcile through a failing caller = %+v, want an error and no revoke", res)
	}
	if got := reg.CounterValue("base.revokes"); got != 0 {
		t.Fatalf("base.revokes = %d after a failed orphan revoke, want 0", got)
	}

	// Healed, the next round revokes the orphan: one revoke, counted once.
	caller.fail.Store(false)
	res = b.ReconcileNow(context.Background())["robot1"]
	if res.Err != "" || len(res.Revoked) != 1 {
		t.Fatalf("healed reconcile = %+v, want the orphan revoked", res)
	}
	if c.receiver.Has("policy") {
		t.Fatal("orphan still installed after a successful revoke")
	}
	if got := reg.CounterValue("base.revokes"); got != 1 {
		t.Fatalf("base.revokes = %d, want 1", got)
	}
}

func TestPushToDepartedNodeCountsOneError(t *testing.T) {
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	caller := &slowPushCaller{installing: make(chan struct{}), release: make(chan struct{})}
	b, err := NewBase(BaseConfig{
		Name:        "hall-1",
		Addr:        "base-1",
		Caller:      caller,
		Signer:      signer,
		Clock:       clock.NewManual(time.Unix(1000, 0)),
		LeaseDur:    time.Minute,
		CallTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	reg := metrics.New()
	b.Instrument(reg)
	if err := b.AddExtension(noopExt("policy", 1)); err != nil {
		t.Fatal(err)
	}

	adaptDone := make(chan error, 1)
	go func() { adaptDone <- b.AdaptNode(context.Background(), "robot1", "robot1") }()
	<-caller.installing
	b.Release("robot1") // the node departs while its push is in flight
	close(caller.release)
	if err := <-adaptDone; err != nil {
		t.Fatalf("adapt: %v", err)
	}

	// The receiver took the install, but the base keeps no grant alive for
	// it: one push error, no push.
	if p, e := reg.CounterValue("base.pushes"), reg.CounterValue("base.push_errors"); p != 0 || e != 1 {
		t.Fatalf("base.pushes = %d, base.push_errors = %d; want 0 and 1", p, e)
	}
	if got := reg.Snapshot().Gauges["base.adapted_nodes"]; got != 0 {
		t.Fatalf("base.adapted_nodes = %d, want 0", got)
	}
}

func TestFailedRoamHintsAreNotCounted(t *testing.T) {
	c := newCluster(t, time.Minute)
	defer c.close()
	b, reg, tr := newCountingBase(t, c, c.fabric.Node("base-1"))
	b.AddNeighbor("base-1")  // served: the cluster's own base
	b.AddNeighbor("nowhere") // nobody serves this address
	if err := b.AdaptNode(context.Background(), "robot1", "robot1"); err != nil {
		t.Fatal(err)
	}

	b.nodeDeparted("robot1")

	if got := reg.CounterValue("base.departures"); got != 1 {
		t.Fatalf("base.departures = %d, want 1", got)
	}
	if got := reg.CounterValue("base.roam_hints"); got != 1 {
		t.Fatalf("base.roam_hints = %d, want 1 (the hint to nowhere failed)", got)
	}
	var sent, failed int
	for _, e := range tr.Events(trace.EventFilter{Component: "base"}) {
		switch {
		case strings.HasPrefix(e.Msg, "roam hint") && strings.Contains(e.Msg, "nowhere failed"):
			failed++
		case strings.HasPrefix(e.Msg, "roam hint") && strings.HasSuffix(e.Msg, "sent to base-1"):
			sent++
		}
	}
	if sent != 1 || failed != 1 {
		t.Fatalf("roam hint events: %d sent, %d failed; want one of each", sent, failed)
	}
}
