package transport

import (
	"context"
	"errors"
	"testing"

	"repro/internal/metrics"
	"repro/internal/testutil"
)

// TestREDWrappers drives a caller and a handler through their RED wrappers
// and checks the per-method instruments: a latency histogram counting every
// call and an error counter counting only the failures, on both sides.
func TestREDWrappers(t *testing.T) {
	fabric := NewInProc()
	mux := newEchoMux()
	boom := errors.New("boom")
	Register(mux, "fail", func(_ context.Context, _ echoReq) (echoResp, error) {
		return echoResp{}, boom
	})
	sreg := metrics.New()
	stop, _ := fabric.Serve("b", REDHandling(mux, sreg))
	defer stop()

	creg := metrics.New()
	c := REDCalls(fabric.Node("a"), creg)
	for i := 0; i < 3; i++ {
		if _, err := Invoke[echoReq, echoResp](context.Background(), c, "b", "echo", echoReq{Msg: "x", N: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Invoke[echoReq, echoResp](context.Background(), c, "b", "fail", echoReq{}); err == nil {
		t.Fatal("fail method should error")
	}

	for _, side := range []struct {
		prefix string
		snap   metrics.Snapshot
	}{
		{REDClientPrefix, creg.Snapshot()},
		{REDServerPrefix, sreg.Snapshot()},
	} {
		h, ok := side.snap.Histograms[REDSuffix(side.prefix, "ns", "echo")]
		if !ok || h.Count != 3 {
			t.Fatalf("%s: echo histogram count = %d (ok=%v), want 3", side.prefix, h.Count, ok)
		}
		if got := side.snap.Counters[REDSuffix(side.prefix, "errors", "echo")]; got != 0 {
			t.Fatalf("%s: echo errors = %d, want 0", side.prefix, got)
		}
		fh := side.snap.Histograms[REDSuffix(side.prefix, "ns", "fail")]
		if fh.Count != 1 {
			t.Fatalf("%s: fail histogram count = %d, want 1 (errors still time)", side.prefix, fh.Count)
		}
		if got := side.snap.Counters[REDSuffix(side.prefix, "errors", "fail")]; got != 1 {
			t.Fatalf("%s: fail errors = %d, want 1", side.prefix, got)
		}
	}
	if got := testutil.Counter(creg, REDSuffix(REDClientPrefix, "errors", "fail")); got != 1 {
		t.Fatalf("testutil counter read = %d, want 1", got)
	}
}

// TestREDNilRegistryPassesThrough pins the no-op contract: without a registry
// the wrappers add nothing — not even a frame on the call path.
func TestREDNilRegistryPassesThrough(t *testing.T) {
	fabric := NewInProc()
	c := fabric.Node("a")
	if REDCalls(c, nil) != c {
		t.Fatal("REDCalls(nil reg) should return the caller unchanged")
	}
	mux := newEchoMux()
	if REDHandling(mux, nil) != Handler(mux) {
		t.Fatal("REDHandling(nil reg) should return the handler unchanged")
	}
}
