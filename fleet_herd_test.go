// Herd scenario: the overload control plane under the worst synchronized
// burst a base station sees — an entire 10k-node fleet healing from a
// partition at once, so every lease renewal lands in the same wheel tick,
// while a read flood hammers the base's query surface. The run is seeded and
// driven by the manual clock: every renewal must succeed (zero degrades,
// zero expiries), the low-priority reads must shed, and a same-seed replay
// must reproduce the shed counters bit for bit.
package repro

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/sign"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// herdRun captures one herd scenario for replay comparison: the overload
// snapshot plus every base-side counter and gauge.
type herdRun struct {
	snap     overload.Snapshot
	counters map[string]uint64
	gauges   map[string]int64
}

// runFleetHerd plays the scenario once and returns its capture.
func runFleetHerd(t *testing.T, seed int64, nNodes int) herdRun {
	t.Helper()
	clk := clock.NewManual(time.Unix(0, 0))
	net := simnet.New(clk, seed)
	defer net.Close()

	names := make([]string, nNodes)
	for i := range names {
		names[i] = fmt.Sprintf("node-%05d", i)
	}
	nodes := make(map[string]*fleetNode, nNodes)
	for _, name := range names {
		fn := newFleetNode(name, clk)
		mux := transport.NewMux()
		fn.serveOn(mux)
		stop, err := net.Serve(name, mux)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		nodes[name] = fn
	}

	signer, err := sign.NewSigner("fleet-base")
	if err != nil {
		t.Fatal(err)
	}
	breaker := transport.NewBreakerSet(seed, transport.BreakerConfig{
		Threshold: 1,
		Cooldown:  time.Minute,
		Jitter:    0,
		Clock:     clk,
	})
	base, err := core.NewBase(core.BaseConfig{
		Name:          "fleet-base",
		Addr:          "fleet-base",
		Caller:        net.Node("fleet-base"),
		Signer:        signer,
		Store:         store.NewMemory(),
		Clock:         clk,
		Breaker:       breaker,
		LeaseDur:      time.Minute,
		RenewFraction: 0.5,
		RenewRetries:  1,
		CallTimeout:   time.Hour, // simulated time governs
		Shards:        16,
		RenewBatch:    64,
		RenewWorkers:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	reg := metrics.New()
	base.Instrument(reg)

	// The overload front on the base's server side: adaptive limiter on the
	// manual clock, plus per-peer token buckets on the query surface. Flood
	// calls run sequentially in simulated time, so every bucket decision —
	// and therefore every shed counter — is exactly reproducible.
	lim := overload.NewLimiter(overload.Config{
		InitialLimit: 64, MinLimit: 8, MaxLimit: 256,
		QueueDepth: 64, Target: 5 * time.Millisecond,
		Interval: 100 * time.Millisecond, RetryAfter: 250 * time.Millisecond,
		Clock: clk,
	})
	lim.Instrument(reg)
	buckets := overload.NewBuckets(overload.BucketConfig{
		Rate: 1, Burst: 5,
		Methods: []string{core.MethodBaseQuery},
		Clock:   clk,
	})
	buckets.Instrument(reg)
	baseMux := transport.NewMux()
	base.ServeOn(baseMux)
	ovl := overload.Wrap(baseMux, lim, buckets, nil)
	base.SetOverload(ovl.Snapshot)
	stopBase, err := net.Serve("fleet-base", ovl)
	if err != nil {
		t.Fatal(err)
	}
	defer stopBase()

	for _, ext := range []core.Extension{
		noopScenarioExt("policy", 1),
		noopScenarioExt("telemetry", 1),
	} {
		if err := base.AddExtension(ext); err != nil {
			t.Fatal(err)
		}
	}

	// t=0: the whole fleet adapts together, so every lease's renewal lands in
	// the same future wheel tick — the herd is armed.
	for _, name := range names {
		if err := base.AdaptNode(name, name); err != nil {
			t.Fatalf("adapt %s: %v", name, err)
		}
	}
	wantLeases := 2 * nNodes
	if got := base.ScheduledRenewals(); got != wantLeases {
		t.Fatalf("scheduled renewals = %d, want %d", got, wantLeases)
	}

	// t=5s: the entire fleet partitions from the base. No renewals are due
	// yet (they come due at t=30s), so nothing fails — the outage just sets
	// up the synchronized heal.
	clk.Advance(5 * time.Second)
	for _, name := range names {
		net.PartitionBoth("fleet-base", name)
	}

	// t=25s: everything heals at once, 5 simulated seconds before the whole
	// fleet's renewals come due together.
	clk.Advance(20 * time.Second)
	net.HealAll()

	drain := func(total, step time.Duration) {
		t.Helper()
		for elapsed := time.Duration(0); elapsed < total; elapsed += step {
			clk.Advance(step)
			testutil.WaitFor(t, "renewals quiesced", base.RenewalsQuiesced)
		}
	}

	// t=40s: the herd has fired — 2*N renewals burst through the batched
	// renewal pipeline in one tick.
	drain(15*time.Second, 15*time.Second)

	// While the keepalive storm is being absorbed, a read flood hits the
	// query surface: every 20th node fires 8 back-to-back queries against a
	// burst-5 bucket, so each flooder gets exactly 3 sheds.
	flooders := 0
	for i, name := range names {
		if i%20 != 0 {
			continue
		}
		flooders++
		cli := net.Node(name)
		for j := 0; j < 8; j++ {
			err := cli.Call(context.Background(), "fleet-base", core.MethodBaseQuery,
				core.QueryReq{}, &core.QueryResp{})
			if j < 5 && err != nil {
				t.Fatalf("flood %s call %d: %v", name, j, err)
			}
			if j >= 5 && !errors.Is(err, transport.ErrOverloaded) {
				t.Fatalf("flood %s call %d: err = %v, want ErrOverloaded", name, j, err)
			}
		}
	}

	// The rest of the renewal window and one more: renewals keep succeeding
	// after the flood.
	drain(105*time.Second, 15*time.Second)

	// Zero renewal-driven casualties: nobody degraded, nobody departed, every
	// lease still scheduled and every node-side deadline still in the future.
	if got := base.Degraded(); len(got) != 0 {
		t.Fatalf("degraded after herd = %v, want none", got)
	}
	if got := testutil.Counter(reg, "base.degrades"); got != 0 {
		t.Fatalf("base.degrades = %d, want 0", got)
	}
	if got := base.ScheduledRenewals(); got != wantLeases {
		t.Fatalf("scheduled renewals after herd = %d, want %d", got, wantLeases)
	}
	now := clk.Now()
	for name, fn := range nodes {
		fn.mu.Lock()
		for ext, g := range fn.grants {
			if !g.deadline.After(now) {
				t.Fatalf("lease %s/%s expired at %v (now %v): renewal lost in the herd",
					name, ext, g.deadline, now)
			}
		}
		fn.mu.Unlock()
	}

	// The low-priority class shed — and only it. Keepalives and mutations
	// went untouched.
	snap := ovl.Snapshot()
	wantSheds := uint64(3 * flooders)
	if snap.ShedRead != wantSheds || snap.PeerSheds != wantSheds {
		t.Fatalf("read sheds = %d (peer %d), want %d", snap.ShedRead, snap.PeerSheds, wantSheds)
	}
	if snap.ShedKeepalive != 0 || snap.ShedMutation != 0 || snap.ExpiredDrops != 0 {
		t.Fatalf("non-read casualties: %+v", snap)
	}
	if snap.Admitted == 0 || snap.Queued != 0 || snap.Inflight != 0 {
		t.Fatalf("limiter did not settle: %+v", snap)
	}

	// The overload status travels the fleet RPC.
	rpcView, err := transport.Invoke[core.EmptyResp, core.FleetResp](
		context.Background(), net.Node("probe"), "fleet-base", core.MethodBaseFleet, core.EmptyResp{})
	if err != nil {
		t.Fatalf("base.fleet RPC: %v", err)
	}
	if rpcView.Overload == nil || rpcView.Overload.ShedRead != wantSheds {
		t.Fatalf("base.fleet overload view = %+v, want ShedRead %d", rpcView.Overload, wantSheds)
	}

	final := ovl.Snapshot()
	snapMetrics := reg.Snapshot()
	return herdRun{snap: final, counters: snapMetrics.Counters, gauges: snapMetrics.Gauges}
}

// TestFleetHerdOverload is the fleet-scale proof for the overload control
// plane: a synchronized 10k-node renewal herd rides through untouched while
// the concurrent read flood sheds deterministically, and a same-seed replay
// reproduces every shed counter bit for bit.
func TestFleetHerdOverload(t *testing.T) {
	seed := testutil.SeedFromEnv(t, "FLEET_SEED", fleetSeedDefault)
	nNodes := fleetNodeCount(t)
	t.Logf("fleet herd: %d nodes, seed %d", nNodes, seed)

	first := runFleetHerd(t, seed, nNodes)
	replay := runFleetHerd(t, seed, nNodes)
	if !reflect.DeepEqual(replay, first) {
		t.Errorf("same-seed replay diverged:\n first: %+v\nreplay: %+v", first.snap, replay.snap)
	}
}
