package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/sign"
	"repro/internal/transport"
)

// stormCaller is a fake fleet node fabric for renewal-storm tests: it answers
// the batch surface directly (no receiver needed), counts calls per method,
// and can mark nodes crashed (every call to them fails).
type stormCaller struct {
	mu          sync.Mutex
	calls       map[string]int  // method -> count
	perNode     map[string]int  // node|method -> count
	crashed     map[string]bool // node -> every call fails
	leaseSeq    int
	obsPerBatch bool // answer WantObs batches with a synthetic report
	wantObs     int  // renewBatch requests that asked for obs
}

func newStormCaller() *stormCaller {
	return &stormCaller{
		calls:   make(map[string]int),
		perNode: make(map[string]int),
		crashed: make(map[string]bool),
	}
}

func (c *stormCaller) count(method string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[method]
}

func (c *stormCaller) nodeCount(node, method string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.perNode[node+"|"+method]
}

func (c *stormCaller) wantObsSeen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wantObs
}

func (c *stormCaller) crash(node string) { c.mu.Lock(); c.crashed[node] = true; c.mu.Unlock() }

func (c *stormCaller) Call(_ context.Context, to, method string, req, resp any) error {
	c.mu.Lock()
	c.calls[method]++
	c.perNode[to+"|"+method]++
	crashed := c.crashed[to]
	c.leaseSeq++
	seq := c.leaseSeq
	c.mu.Unlock()

	if crashed {
		return fmt.Errorf("dial %s: %w", to, transport.ErrUnreachable)
	}
	minute := time.Minute.Milliseconds()
	switch method {
	case MethodApplyBatch:
		out := ApplyBatchResp{}
		r := req.(ApplyBatchReq)
		for i := range r.Installs {
			out.Installs = append(out.Installs, InstallItemResp{LeaseID: fmt.Sprintf("L%d-%d", seq, i)})
		}
		for range r.Revokes {
			out.Revokes = append(out.Revokes, RevokeItemResp{})
		}
		*(resp.(*ApplyBatchResp)) = out
	case MethodRenewBatch:
		r := req.(RenewBatchReq)
		out := RenewBatchResp{}
		for range r.Items {
			out.Items = append(out.Items, RenewItemResp{DurMillis: minute})
		}
		if r.WantObs {
			c.mu.Lock()
			c.wantObs++
			obs := c.obsPerBatch
			c.mu.Unlock()
			if obs {
				// A synthetic per-report delta: every batch "served" its items,
				// odd sequence numbers saw one error, and one span was dropped.
				out.Obs = &ObsReport{
					Methods: []ObsMethodDelta{{
						Method: MethodRenewBatch,
						Count:  uint64(len(r.Items)),
						Errors: uint64(seq % 2),
						SumNs:  int64(len(r.Items)) * 1_000,
					}},
					SpansDropped: 1,
				}
			}
		}
		*(resp.(*RenewBatchResp)) = out
	}
	return nil
}

func newStormBase(t *testing.T, clk clock.Clock, caller transport.Caller, breaker *transport.BreakerSet, batch, workers int) (*Base, *metrics.Registry) {
	t.Helper()
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBase(BaseConfig{
		Name:          "hall-1",
		Addr:          "base-1",
		Caller:        caller,
		Signer:        signer,
		Clock:         clk,
		Breaker:       breaker,
		LeaseDur:      time.Minute,
		RenewFraction: 0.5,
		RenewRetries:  1,
		RenewBatch:    batch,
		RenewWorkers:  workers,
		CallTimeout:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	reg := metrics.New()
	b.Instrument(reg)
	return b, reg
}

// drainRenewals advances the manual clock in tick-sized steps across dur and
// waits for the renewal scheduler to quiesce after each step, so every due
// renewal (and its retries) runs to completion deterministically.
func drainRenewals(t *testing.T, clk *clock.Manual, b *Base, dur, step time.Duration) {
	t.Helper()
	for elapsed := time.Duration(0); elapsed < dur; elapsed += step {
		clk.Advance(step)
		waitUntil(t, "renewals quiesced", b.RenewalsQuiesced)
	}
}

// TestRenewalStormCoalesces pins the batching contract: N leases granted to
// one node in the same tick come due together and must ride ceil(N/batch)
// midas.renewBatch RPCs — not N per-lease calls.
func TestRenewalStormCoalesces(t *testing.T) {
	const nExts, batch = 24, 8
	clk := clock.NewManual(time.Unix(1000, 0))
	caller := newStormCaller()
	b, reg := newStormBase(t, clk, caller, nil, batch, 1)

	for i := 0; i < nExts; i++ {
		if err := b.AddExtension(noopExt(fmt.Sprintf("ext-%02d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	if got := b.ScheduledRenewals(); got != nExts {
		t.Fatalf("scheduled renewals = %d, want %d", got, nExts)
	}
	// The whole policy set rode one batched apply.
	if got := reg.Snapshot().Counters["base.push_batch"]; got != 1 {
		t.Fatalf("base.push_batch = %d, want 1", got)
	}

	// All leases were granted at the same instant: every renewal comes due at
	// t+30s, in the same wheel advance.
	drainRenewals(t, clk, b, 30*time.Second, 30*time.Second)

	snap := reg.Snapshot()
	wantBatches := uint64((nExts + batch - 1) / batch)
	if got := snap.Counters["base.renew_batch"]; got != wantBatches {
		t.Fatalf("base.renew_batch = %d, want %d (N=%d, batch=%d)", got, wantBatches, nExts, batch)
	}
	if got := snap.Counters["base.renew_batch_leases"]; got != nExts {
		t.Fatalf("base.renew_batch_leases = %d, want %d", got, nExts)
	}
	if got := caller.count(MethodRenewBatch); got != int(wantBatches) {
		t.Fatalf("midas.renewBatch RPCs = %d, want %d", got, wantBatches)
	}
}

// TestRenewalStormCrashParksNodeWithoutStallingOthers crashes one node in a
// two-node storm: its batch fails, retries exhaust, and the breaker parks it
// degraded — while the healthy node's renewals in the same ticks all land.
func TestRenewalStormCrashParksNodeWithoutStallingOthers(t *testing.T) {
	const nExts = 6
	clk := clock.NewManual(time.Unix(1000, 0))
	caller := newStormCaller()
	breaker := transport.NewBreakerSet(1, transport.BreakerConfig{
		Threshold: 1,
		Cooldown:  time.Hour,
		Jitter:    0,
		Clock:     clk,
	})
	b, reg := newStormBase(t, clk, caller, breaker, 8, 2)

	for i := 0; i < nExts; i++ {
		if err := b.AddExtension(noopExt(fmt.Sprintf("ext-%02d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, node := range []string{"robot-a", "robot-b"} {
		if err := b.AdaptNode(node, node); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.ScheduledRenewals(); got != 2*nExts {
		t.Fatalf("scheduled renewals = %d, want %d", got, 2*nExts)
	}

	// robot-a dies mid-flight; its renewal batch at t+30s fails, the retry at
	// t+45s fast-fails on the open circuit, and the node parks degraded.
	caller.crash("robot-a")
	drainRenewals(t, clk, b, 50*time.Second, 10*time.Second)
	waitUntil(t, "robot-a degraded", func() bool {
		d := b.Degraded()
		return len(d) == 1 && d[0] == "robot-a"
	})

	if got := b.Adapted(); len(got) != 1 || got[0] != "robot-b" {
		t.Fatalf("adapted = %v, want [robot-b]", got)
	}
	// The healthy node's renewals were not stalled by the crashed batch.
	if got := caller.nodeCount("robot-b", MethodRenewBatch); got < 1 {
		t.Fatalf("robot-b renew batches = %d, want >= 1", got)
	}
	// robot-a's schedule is gone; robot-b's leases are still being kept alive.
	if got := b.ScheduledRenewals(); got != nExts {
		t.Fatalf("scheduled renewals after crash = %d, want %d (robot-b only)", got, nExts)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["base.degrades"]; got != 1 {
		t.Fatalf("base.degrades = %d, want 1", got)
	}
	if got := snap.Counters["base.departures"]; got != 0 {
		t.Fatalf("base.departures = %d, want 0 (parked, not departed)", got)
	}
	// And the wheel keeps running: the next window renews robot-b again.
	before := caller.nodeCount("robot-b", MethodRenewBatch)
	drainRenewals(t, clk, b, 30*time.Second, 10*time.Second)
	if got := caller.nodeCount("robot-b", MethodRenewBatch); got <= before {
		t.Fatalf("robot-b renew batches stuck at %d after another window", got)
	}
}
