package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/sign"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestObsPiggybackOverRPC drives the node side end to end: a receiver whose
// serving handler is RED-instrumented answers midas.renewBatch, and when the
// request asks (WantObs) the response carries the delta of everything the
// node's instruments saw since the last report — and only the delta.
func TestObsPiggybackOverRPC(t *testing.T) {
	n := newTestNode(t)
	reg := metrics.New()
	tracer := trace.New(1)
	tracer.SetSampler(trace.SamplerConfig{Rate: 0, Seed: 1})
	n.receiver.Instrument(reg)
	n.receiver.Trace(tracer)
	mux := transport.NewMux()
	n.receiver.ServeOn(mux)
	fabric := transport.NewInProc()
	stop, err := fabric.Serve("node-1", transport.REDHandling(mux, reg))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	caller := fabric.Node("base-1")
	ctx := context.Background()

	signed, err := Sign(n.signer, builtinExt("obs-ext", 1))
	if err != nil {
		t.Fatal(err)
	}
	applied, err := transport.Invoke[ApplyBatchReq, ApplyBatchResp](ctx, caller, "node-1", MethodApplyBatch, ApplyBatchReq{
		Installs: []InstallReq{{Signed: signed, BaseAddr: "base-1", DurMillis: 60_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := applied.Installs[0]

	// Without WantObs the response must carry nothing extra.
	bare, err := transport.Invoke[RenewBatchReq, RenewBatchResp](ctx, caller, "node-1", MethodRenewBatch, RenewBatchReq{
		Items: []RenewExtReq{{LeaseID: inst.LeaseID, DurMillis: 60_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Obs != nil {
		t.Fatalf("unasked response carried obs: %+v", bare.Obs)
	}

	resp, err := transport.Invoke[RenewBatchReq, RenewBatchResp](ctx, caller, "node-1", MethodRenewBatch, RenewBatchReq{
		Items:   []RenewExtReq{{LeaseID: inst.LeaseID, DurMillis: 60_000}},
		WantObs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Obs == nil {
		t.Fatal("WantObs response carried no report")
	}
	deltas := map[string]ObsMethodDelta{}
	for _, m := range resp.Obs.Methods {
		deltas[m.Method] = m
	}
	// The install and both renewBatch calls went through the RED handler; the
	// report must carry their counts (the in-flight renewBatch observes after
	// the handler returns, so the report sees the previous two).
	if d := deltas[MethodApplyBatch]; d.Count != 1 || d.SumNs < 0 {
		t.Fatalf("install delta = %+v, want count 1", d)
	}
	if d := deltas[MethodRenewBatch]; d.Count != 1 {
		t.Fatalf("renewBatch delta = %+v, want count 1 (the un-instrumented probe)", d)
	}
	if resp.Obs.SampledOut == 0 {
		t.Fatalf("report sampled-out = 0, want the receiver's dropped spans counted")
	}

	// The next report carries only what happened since: install must be gone.
	resp2, err := transport.Invoke[RenewBatchReq, RenewBatchResp](ctx, caller, "node-1", MethodRenewBatch, RenewBatchReq{
		Items:   []RenewExtReq{{LeaseID: inst.LeaseID, DurMillis: 60_000}},
		WantObs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Obs == nil {
		t.Fatal("second WantObs response carried no report")
	}
	for _, m := range resp2.Obs.Methods {
		if m.Method == MethodApplyBatch {
			t.Fatalf("install re-reported in the second delta: %+v", m)
		}
		if m.Method == MethodRenewBatch && m.Count != 1 {
			t.Fatalf("second renewBatch delta = %+v, want exactly the one call since", m)
		}
	}
}

// TestFleetRollupMatchesNodeTotals checks the base-side merge invariant the
// acceptance scenario leans on: the per-method rollup and the per-node rows
// are two groupings of the same deltas, so their grand totals always agree —
// and an un-instrumented base never asks for reports at all.
func TestFleetRollupMatchesNodeTotals(t *testing.T) {
	const nodes = 3
	clk := clock.NewManual(time.Unix(1000, 0))
	caller := newStormCaller()
	caller.obsPerBatch = true
	b, _ := newStormBase(t, clk, caller, nil, 8, 2)
	for i := 0; i < 4; i++ {
		if err := b.AddExtension(noopExt(fmt.Sprintf("ext-%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nodes; i++ {
		if err := b.AdaptNode(fmt.Sprintf("robot-%d", i), fmt.Sprintf("robot-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	drainRenewals(t, clk, b, 30*time.Second, 30*time.Second)

	st := b.FleetStatus()
	if st.Reports == 0 || len(st.Nodes) != nodes {
		t.Fatalf("fleet = %d reports over %d nodes, want >0 over %d", st.Reports, len(st.Nodes), nodes)
	}
	var mCount, nCount, mErrs, nErrs uint64
	var mSum, nSum int64
	for _, m := range st.Methods {
		mCount += m.Count
		mErrs += m.Errors
		mSum += m.SumNs
		if m.Count > 0 && m.MeanNs != m.SumNs/int64(m.Count) {
			t.Fatalf("method %s mean %d != %d/%d", m.Method, m.MeanNs, m.SumNs, m.Count)
		}
	}
	for _, n := range st.Nodes {
		nCount += n.Count
		nErrs += n.Errors
		nSum += n.SumNs
		if n.SpansDropped != 1 {
			t.Fatalf("node %s dropped = %d, want the synthetic 1 per report", n.Node, n.SpansDropped)
		}
		if n.LastReportMillis == 0 {
			t.Fatalf("node %s has no report timestamp", n.Node)
		}
	}
	if mCount != nCount || mErrs != nErrs || mSum != nSum {
		t.Fatalf("rollup totals (%d,%d,%d) != node totals (%d,%d,%d)",
			mCount, mErrs, mSum, nCount, nErrs, nSum)
	}

	// An un-instrumented base must not ask: traffic stays byte-identical to
	// the pre-observability generation.
	caller2 := newStormCaller()
	caller2.obsPerBatch = true
	clk2 := clock.NewManual(time.Unix(1000, 0))
	b2 := newStormBaseUninstrumented(t, clk2, caller2)
	if err := b2.AddExtension(noopExt("ext-0", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b2.AdaptNode("robot-x", "robot-x"); err != nil {
		t.Fatal(err)
	}
	for elapsed := time.Duration(0); elapsed < 30*time.Second; elapsed += 10 * time.Second {
		clk2.Advance(10 * time.Second)
		waitUntil(t, "renewals quiesced", b2.RenewalsQuiesced)
	}
	if got := caller.wantObsSeen(); got == 0 {
		t.Fatal("instrumented base never asked for obs")
	}
	if got := caller2.wantObsSeen(); got != 0 {
		t.Fatalf("un-instrumented base asked for obs %d times", got)
	}
	if st2 := b2.FleetStatus(); st2.Reports != 0 {
		t.Fatalf("un-instrumented base merged %d reports", st2.Reports)
	}
}

// newStormBaseUninstrumented is newStormBase without the metrics registry:
// the negative control for the WantObs gate.
func newStormBaseUninstrumented(t *testing.T, clk clock.Clock, caller transport.Caller) *Base {
	t.Helper()
	signer, err := sign.NewSigner("hall-2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBase(BaseConfig{
		Name:          "hall-2",
		Addr:          "base-2",
		Caller:        caller,
		Signer:        signer,
		Clock:         clk,
		LeaseDur:      time.Minute,
		RenewFraction: 0.5,
		RenewRetries:  1,
		RenewBatch:    8,
		RenewWorkers:  2,
		CallTimeout:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}
