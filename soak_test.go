package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sign"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestSoakAdaptDepartHeapFlat runs many adapt→depart cycles over a fixed pool
// of nodes and checks that the live heap stays flat: a long-running base or
// node must not keep a record per lifecycle event. Each cycle adapts one node
// (sign, push, verify, weave), releases it at the base and lets its lease
// lapse at the receiver (expire, withdraw). Everything is traced into small
// rings, which fill during the warm-up.
func TestSoakAdaptDepartHeapFlat(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("heap accounting is meaningless under the race detector")
	}
	const (
		poolSize   = 8
		warmup     = 500
		cycles     = 4000
		leaseDur   = 10 * time.Second
		maxGrowth  = 256 << 10 // bytes over all measured cycles: 64 B a cycle
		ringSpans  = 256
		ringEvents = 64
	)
	clk := clock.NewManual(time.Unix(0, 0))
	fabric := transport.NewInProc()
	tr := trace.New(1)
	tr.SetCapacity(ringSpans, ringEvents)

	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.NewBase(core.BaseConfig{
		Name:        "base-1",
		Addr:        "base-1",
		Caller:      fabric.Node("base-1"),
		Signer:      signer,
		Clock:       clk,
		LeaseDur:    leaseDur,
		CallTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	baseReg := metrics.New()
	base.Instrument(baseReg)
	base.Trace(tr)
	if err := base.AddExtension(noopScenarioExt("policy", 1)); err != nil {
		t.Fatal(err)
	}

	names := make([]string, poolSize)
	nodes := make(map[string]*core.Receiver, poolSize)
	for i := range names {
		name := fmt.Sprintf("robot-%d", i)
		names[i] = name
		r, stop := serveNode(t, fabric, testNode{name: name, trusted: signer, clk: clk, reg: metrics.New()})
		defer stop()
		r.Trace(tr)
		nodes[name] = r
	}

	cycle := func(i int) {
		name := names[i%poolSize]
		r := nodes[name]
		if err := base.AdaptNode(context.Background(), name, name); err != nil {
			t.Fatalf("cycle %d: adapt %s: %v", i, name, err)
		}
		if !r.Has("policy") {
			t.Fatalf("cycle %d: %s not adapted", i, name)
		}
		base.Release(name)
		clk.Advance(leaseDur + time.Second)
		r.Grantor().ExpireNow()
		if r.Has("policy") {
			t.Fatalf("cycle %d: %s kept the extension past its lease", i, name)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	for i := 0; i < warmup; i++ {
		cycle(i)
	}
	mark := liveHeap()
	for i := warmup; i < warmup+cycles; i++ {
		cycle(i)
	}
	end := liveHeap()

	if got := baseReg.CounterValue("base.departures"); got != warmup+cycles {
		t.Fatalf("base.departures = %d, want %d", got, warmup+cycles)
	}
	growth := int64(end) - int64(mark)
	t.Logf("live heap %d B after warm-up, %d B after %d more cycles (%+.1f B a cycle)",
		mark, end, cycles, float64(growth)/cycles)
	if growth > maxGrowth {
		t.Fatalf("live heap grew %d B over %d adapt→depart cycles (%.1f B a cycle), bound %d B",
			growth, cycles, float64(growth)/cycles, maxGrowth)
	}
}
