package simnet

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// text is a one-string message body.
type text struct{ S string }

func (t text) MarshalWire(e *wire.Encoder) { e.String(t.S) }

func (t *text) UnmarshalWire(d *wire.Decoder) error {
	t.S = d.String()
	return d.Err()
}

// echoServer serves one "echo" method that counts invocations and returns
// the request payload unchanged.
func echoServer(t *testing.T, n *Net, addr string) (*atomic.Int64, func()) {
	t.Helper()
	var count atomic.Int64
	mux := transport.NewMux()
	transport.Register(mux, "echo", func(_ context.Context, req text) (text, error) {
		count.Add(1)
		return req, nil
	})
	stop, err := n.Serve(addr, mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return &count, stop
}

func call(c transport.Caller, to string) error {
	var resp text
	return c.Call(context.Background(), to, "echo", text{"ping"}, &resp)
}

func TestFaultFreeRoundTrip(t *testing.T) {
	n := New(nil, 1)
	defer n.Close()
	count, _ := echoServer(t, n, "b")
	var resp text
	if err := n.Node("a").Call(context.Background(), "b", "echo", text{"hello"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.S != "hello" || count.Load() != 1 {
		t.Fatalf("resp=%q count=%d", resp.S, count.Load())
	}
}

func TestAsymmetricPartition(t *testing.T) {
	n := New(nil, 1)
	defer n.Close()
	countA, _ := echoServer(t, n, "a")
	countB, _ := echoServer(t, n, "b")

	n.Partition("a", "b")
	if err := call(n.Node("a"), "b"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("a->b through partition: %v", err)
	}
	if countB.Load() != 0 {
		t.Fatal("partitioned request was delivered")
	}
	// The reverse direction still flows: b's request reaches a, but the
	// response crosses a->b, which is blocked — handler runs, caller fails.
	if err := call(n.Node("b"), "a"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("b->a response should be lost: %v", err)
	}
	if countA.Load() != 1 {
		t.Fatalf("request b->a should have been delivered once, got %d", countA.Load())
	}

	n.HealBoth("a", "b")
	if err := call(n.Node("a"), "b"); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestCrashRestartAndWipe(t *testing.T) {
	n := New(nil, 1)
	defer n.Close()
	count, _ := echoServer(t, n, "b")
	c := n.Node("a")
	if err := call(c, "b"); err != nil {
		t.Fatal(err)
	}

	n.Crash("b")
	if err := call(c, "b"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("call to crashed node: %v", err)
	}
	// Calls *from* a crashed node fail too.
	if err := call(n.Node("b"), "a"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("call from crashed node: %v", err)
	}

	n.Restart("b") // state retained
	if err := call(c, "b"); err != nil {
		t.Fatalf("after restart: %v", err)
	}
	if count.Load() != 2 {
		t.Fatalf("restart should retain the handler, count=%d", count.Load())
	}

	n.Wipe("b")
	if err := call(c, "b"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("call to wiped node: %v", err)
	}
	n.Restart("b") // no-op: state is gone
	if err := call(c, "b"); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("restart after wipe must not resurrect state: %v", err)
	}
	fresh, _ := echoServer(t, n, "b") // restart from scratch
	if err := call(c, "b"); err != nil {
		t.Fatalf("after re-serve: %v", err)
	}
	if fresh.Load() != 1 || count.Load() != 2 {
		t.Fatalf("wiped state leaked: fresh=%d old=%d", fresh.Load(), count.Load())
	}
}

func TestSynchronousDuplicateDelivery(t *testing.T) {
	n := New(nil, 1)
	defer n.Close()
	count, _ := echoServer(t, n, "b")
	n.SetLink("a", "b", LinkProfile{Dup: 1})
	if err := call(n.Node("a"), "b"); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2 (original + duplicate)", count.Load())
	}
}

func TestDelayedDuplicateDelivery(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	n := New(clk, 1)
	defer n.Close()
	count, _ := echoServer(t, n, "b")
	n.SetLink("a", "b", LinkProfile{Dup: 1, DupDelay: 5 * time.Second})
	if err := call(n.Node("a"), "b"); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 1 {
		t.Fatalf("duplicate delivered early: %d", count.Load())
	}
	Advance(clk, 6*time.Second, time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for count.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("delayed duplicate never delivered, count=%d", count.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLatencyRunsOnInjectedClock(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	n := New(clk, 1)
	defer n.Close()
	echoServer(t, n, "b")
	n.SetLinkBoth("a", "b", LinkProfile{LatencyMin: 10 * time.Millisecond, LatencyMax: 10 * time.Millisecond})

	done := make(chan error, 1)
	go func() { done <- call(n.Node("a"), "b") }()
	select {
	case err := <-done:
		t.Fatalf("call completed without the clock advancing: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	stop := Drive(clk, 5*time.Millisecond)
	defer stop()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := clk.Now().Sub(time.Unix(0, 0)); got < 20*time.Millisecond {
		t.Fatalf("round trip took %v simulated, want >= 20ms (two one-way hops)", got)
	}
}

func TestSeededFaultsReplayIdentically(t *testing.T) {
	run := func(seed int64) (metrics.Snapshot, []bool) {
		reg := metrics.New()
		n := New(nil, seed)
		defer n.Close()
		n.Instrument(reg)
		echoServer(t, n, "b")
		n.SetLinkBoth("a", "b", LinkProfile{Loss: 0.4, Dup: 0.3})
		c := n.Node("a")
		var outcomes []bool
		for i := 0; i < 50; i++ {
			outcomes = append(outcomes, call(c, "b") == nil)
		}
		return reg.Snapshot(), outcomes
	}
	s1, o1 := run(99)
	s2, o2 := run(99)
	if !reflect.DeepEqual(o1, o2) {
		t.Fatalf("same seed, different call outcomes:\n%v\n%v", o1, o2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed, different metrics:\n%+v\n%+v", s1, s2)
	}
	if s1.Counters["simnet.losses"] == 0 || s1.Counters["simnet.dups"] == 0 {
		t.Fatalf("faults not exercised: %+v", s1.Counters)
	}
	_, o3 := run(100)
	if reflect.DeepEqual(o1, o3) {
		t.Fatal("different seeds produced identical 50-call outcome sequences")
	}
}

func TestReorderAddsDelayAndCounts(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	reg := metrics.New()
	n := New(clk, 1)
	defer n.Close()
	n.Instrument(reg)
	echoServer(t, n, "b")
	n.SetLink("a", "b", LinkProfile{Reorder: 1, ReorderDelay: 50 * time.Millisecond})

	stop := Drive(clk, 10*time.Millisecond)
	defer stop()
	if err := call(n.Node("a"), "b"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["simnet.reorders"]; got != 1 {
		t.Fatalf("simnet.reorders = %d, want 1", got)
	}
	if got := clk.Now().Sub(time.Unix(0, 0)); got < 50*time.Millisecond {
		t.Fatalf("reordered message arrived after %v, want >= 50ms held back", got)
	}
}

func TestParseFaults(t *testing.T) {
	p, err := ParseFaults("loss=0.1, dup=0.05, reorder=0.02, latmin=5ms, latmax=50ms, dupdelay=1s")
	if err != nil {
		t.Fatal(err)
	}
	want := LinkProfile{
		Loss: 0.1, Dup: 0.05, Reorder: 0.02,
		LatencyMin: 5 * time.Millisecond, LatencyMax: 50 * time.Millisecond,
		DupDelay: time.Second,
	}
	if p != want {
		t.Fatalf("got %+v, want %+v", p, want)
	}
	for _, bad := range []string{"loss=2", "nope=1", "latmin=xyz", "loss"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Fatalf("ParseFaults(%q) accepted", bad)
		}
	}
	if p, err := ParseFaults(""); err != nil || p != (LinkProfile{}) {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}
}

func TestChaosWrapperInjectsFaults(t *testing.T) {
	n := New(nil, 1)
	defer n.Close()
	count, _ := echoServer(t, n, "b")
	reg := metrics.New()
	chaos := NewChaos(n.Node("a"), 3, LinkProfile{Loss: 0.5, Dup: 0.2})
	chaos.Instrument(reg)
	okCalls := 0
	for i := 0; i < 40; i++ {
		if call(chaos, "b") == nil {
			okCalls++
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["simnet.losses"] == 0 {
		t.Fatal("chaos injected no losses")
	}
	if okCalls == 0 || okCalls == 40 {
		t.Fatalf("okCalls = %d, want a mix", okCalls)
	}
	if dups := snap.Counters["simnet.dups"]; int64(count.Load()) != int64(okCalls)+int64(dups) {
		t.Fatalf("handler ran %d times, want %d ok + %d dups", count.Load(), okCalls, dups)
	}
}
