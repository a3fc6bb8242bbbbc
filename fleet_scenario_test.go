// Fleet-scale scenario: one base station keeping >=10k real receivers
// adapted through churn — roams, crashes and partitions — on the timer-wheel
// renewal scheduler, batched RPCs and the sharded node table. The run is
// seeded and driven entirely by the manual clock, leases lapse on it, so a
// faulty fleet must converge to the exact state of a fault-free fleet, and a
// same-seed replay must reproduce the faulty run bit for bit. Set
// FLEET_NODES / FLEET_SEED to resize or replay.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sign"
	"repro/internal/simnet"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
)

// fleetSeedDefault pins the CI fleet run; FLEET_SEED overrides for replay.
const fleetSeedDefault = 20030901

// fleetSize sizes the fleet: FLEET_NODES when set, 10k by default, and
// a smaller fleet under the race detector so -race suites stay quick.
func fleetSize(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("FLEET_NODES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("FLEET_NODES=%q: want a positive integer", v)
		}
		return n
	}
	if raceDetectorEnabled {
		return 1000
	}
	return 10000
}

// fleetNames names an n-node fleet in address order.
func fleetNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node-%05d", i)
	}
	return names
}

// fleetMember is one node of a fleet run: its real receiver and the registry
// that receiver counts in.
type fleetMember struct {
	name string
	recv *core.Receiver
	reg  *metrics.Registry
}

// fleet is a set of real receivers on one manual clock. No receiver runs a
// lease sweeper goroutine: step sweeps every grantor after each clock step,
// so leases lapse in simulated time while the fleet's goroutine count stays
// independent of its size.
type fleet struct {
	clk   *clock.Manual
	nodes []fleetMember
}

// newFleet serves one receiver per name on srv, each trusting signer and
// counting in its own registry; observed also serves each behind RED
// instruments, so renewals piggyback obs deltas. The returned function stops
// serving the whole fleet.
func newFleet(tb testing.TB, srv nodeServer, clk *clock.Manual, signer *sign.Signer, names []string, observed bool) (*fleet, func()) {
	tb.Helper()
	f := &fleet{clk: clk, nodes: make([]fleetMember, len(names))}
	stops := make([]func(), len(names))
	for i, name := range names {
		reg := metrics.New()
		recv, stop := serveNode(tb, srv, testNode{name: name, trusted: signer, clk: clk, reg: reg, red: observed})
		f.nodes[i] = fleetMember{name: name, recv: recv, reg: reg}
		stops[i] = stop
	}
	return f, func() {
		for _, stop := range stops {
			stop()
		}
	}
}

// sweep expires every lapsed lease on every receiver, withdrawing its
// extension: what each node's own sweeper would have done by now.
func (f *fleet) sweep() {
	for _, n := range f.nodes {
		n.recv.Grantor().ExpireNow()
	}
}

// checkS1 is safety invariant S1 (§3.2): no receiver holds an extension
// whose lease deadline is before the clock. An installed extension with no
// live lease at all reports deadline 0 and fails too.
func (f *fleet) checkS1(tb testing.TB) {
	tb.Helper()
	now := f.clk.Now().UnixMilli()
	for _, n := range f.nodes {
		for _, it := range n.recv.Inventory() {
			if it.DeadlineMillis < now {
				tb.Fatalf("S1: %s still holds %s v%d with lease deadline %d ms, clock at %d ms",
					n.name, it.Name, it.Version, it.DeadlineMillis, now)
			}
		}
	}
}

// step advances the clock by d, lets the base's renewals settle, sweeps
// every receiver and checks S1.
func (f *fleet) step(tb testing.TB, base *core.Base, d time.Duration) {
	tb.Helper()
	f.clk.Advance(d)
	testutil.WaitFor(tb, "renewals quiesced", base.RenewalsQuiesced)
	f.sweep()
	f.checkS1(tb)
}

// convergedNode is one node's row in a convergence summary: everything
// about distribution state, nothing about how it got there.
type convergedNode struct {
	Addr  string
	State string
	Exts  []string
}

// fleetState is the fault-insensitive convergence summary: a healed, fully
// reconciled fleet must reach the same fleetState a fault-free run reaches.
type fleetState struct {
	Nodes     []convergedNode
	Scheduled int
	Adapted   int64
	Degraded  int64
}

// fleetRun additionally captures every counter and drift statistic, which a
// same-seed replay must reproduce exactly.
type fleetRun struct {
	state    fleetState
	drift    core.DriftCounters
	counters map[string]uint64
	gauges   map[string]int64
}

// fleetFaults is the churn plan, derived deterministically from the seed:
// disjoint slices of the fleet to partition, crash, and roam.
type fleetFaults struct {
	partitioned []string
	crashed     []string
	roamed      []string
}

func planFleetFaults(seed int64, names []string) fleetFaults {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(names))
	pick := func(from, n int) []string {
		out := make([]string, 0, n)
		for _, idx := range perm[from : from+n] {
			out = append(out, names[idx])
		}
		sort.Strings(out)
		return out
	}
	nPart := max(1, len(names)*2/100)  // ~2% drop off the network
	nCrash := max(1, len(names)/100)   // ~1% crash and restart
	nRoam := max(1, len(names)*5/1000) // ~0.5% roam away and back
	return fleetFaults{
		partitioned: pick(0, nPart),
		crashed:     pick(nPart, nCrash),
		roamed:      pick(nPart+nCrash, nRoam),
	}
}

// runFleet plays one complete fleet scenario — adapt, optional churn, heal,
// reconcile, stabilize — and returns its summary. Fault-free and faulty runs
// follow the same clock schedule so their convergence states are comparable.
func runFleet(t *testing.T, seed int64, nNodes int, withFaults bool) fleetRun {
	t.Helper()
	goroutineBaseline := runtime.NumGoroutine()

	clk := clock.NewManual(time.Unix(0, 0))
	net := simnet.New(clk, seed)
	defer net.Close()

	signer, err := sign.NewSigner("fleet-base")
	if err != nil {
		t.Fatal(err)
	}
	names := fleetNames(nNodes)
	nodes, stopNodes := newFleet(t, net, clk, signer, names, false)
	defer stopNodes()

	breaker := transport.NewBreakerSet(seed, transport.BreakerConfig{
		Threshold: 1,
		Cooldown:  time.Minute,
		Jitter:    0,
		Clock:     clk,
	})
	base, err := core.NewBase(core.BaseConfig{
		Name:         "fleet-base",
		Addr:         "fleet-base",
		Caller:       net.Node("fleet-base"),
		Signer:       signer,
		Clock:        clk,
		Breaker:      breaker,
		LeaseDur:     time.Minute,
		RenewRetries: 1,
		CallTimeout:  time.Hour, // simulated time governs
		Shards:       16,
		RenewBatch:   64,
		RenewWorkers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	reg := metrics.New()
	base.Instrument(reg)

	for _, ext := range []core.Extension{
		noopScenarioExt("policy", 1),
		noopScenarioExt("telemetry", 1),
	} {
		if err := base.AddExtension(ext); err != nil {
			t.Fatal(err)
		}
	}

	// t=0: the whole fleet walks into the cell.
	for _, name := range names {
		if err := base.AdaptNode(context.Background(), name, name); err != nil {
			t.Fatalf("adapt %s: %v", name, err)
		}
	}
	wantLeases := 2 * nNodes
	if got := base.ScheduledRenewals(); got != wantLeases {
		t.Fatalf("scheduled renewals = %d, want %d", got, wantLeases)
	}
	// The tentpole claim: keeping 2*N leases alive costs O(shards + wheels)
	// goroutines — one wheel, a bounded worker pool — not O(leases).
	if g := runtime.NumGoroutine(); g > goroutineBaseline+32 {
		t.Fatalf("%d goroutines for %d leases (baseline %d): renewal scheduling is not O(shards+wheels)",
			g, wantLeases, goroutineBaseline)
	}

	drain := func(total, step time.Duration) {
		t.Helper()
		for elapsed := time.Duration(0); elapsed < total; elapsed += step {
			nodes.step(t, base, step)
		}
	}

	faults := planFleetFaults(seed, names)
	nodes.step(t, base, 5*time.Second)

	if withFaults {
		// t=5s: churn hits. Partitioned nodes fall off the network, crashed
		// nodes go down holding their state, roamers leave and come right
		// back (release + re-adapt).
		for _, name := range faults.partitioned {
			net.PartitionBoth("fleet-base", name)
		}
		for _, name := range faults.crashed {
			net.Crash(name)
		}
		for _, name := range faults.roamed {
			base.Release(name)
			if err := base.AdaptNode(context.Background(), name, name); err != nil {
				t.Fatalf("re-adapt roamer %s: %v", name, err)
			}
		}
	}

	// One lease window plus retry slack: unreachable nodes fail their
	// renewals, trip their breakers and park degraded, and their receivers
	// withdraw both extensions when the leases lapse at t=60s; everyone
	// else renews.
	drain(60*time.Second, 15*time.Second)

	wantDegraded := []string{}
	if withFaults {
		wantDegraded = append(append(wantDegraded, faults.partitioned...), faults.crashed...)
		sort.Strings(wantDegraded)
	}
	testutil.WaitFor(t, "faulted nodes parked degraded", func() bool {
		got := base.Degraded()
		if len(got) != len(wantDegraded) {
			return false
		}
		sort.Strings(got)
		return len(got) == 0 || reflect.DeepEqual(got, wantDegraded)
	})
	testutil.WaitFor(t, "degrade counters settled", func() bool {
		return testutil.Counter(reg, "base.degrades") == uint64(len(wantDegraded))
	})
	// Roamer releases are the only departures; unreachable nodes must have
	// parked degraded, not departed.
	wantDeparts := uint64(0)
	if withFaults {
		wantDeparts = uint64(len(faults.roamed))
	}
	if got := testutil.Counter(reg, "base.departures"); got != wantDeparts {
		t.Fatalf("base.departures = %d, want %d (roamer releases only)", got, wantDeparts)
	}
	// Exactly the unreachable nodes lost their leases, both of them; a
	// roamer's re-push refreshed the lease it still held.
	faulted := make(map[string]bool, len(wantDegraded))
	for _, name := range wantDegraded {
		faulted[name] = true
	}
	for _, n := range nodes.nodes {
		want := uint64(0)
		if faulted[n.name] {
			want = 2
		}
		if got := testutil.Counter(n.reg, "ext.expiries"); got != want {
			t.Fatalf("%s ext.expiries = %d, want %d", n.name, got, want)
		}
	}

	// Heal everything and let the breakers' cooldown elapse; degraded nodes
	// are parked (no renewal traffic), the rest keep renewing.
	net.HealAll()
	for _, name := range faults.crashed {
		net.Restart(name)
	}
	drain(60*time.Second, 15*time.Second)

	// Anti-entropy: one reconcile round promotes every parked node and
	// re-pushes the extensions its receiver withdrew. No lapsed lease is
	// there to adopt.
	base.ReconcileNow(context.Background())
	if got := base.Degraded(); len(got) != 0 {
		t.Fatalf("degraded after heal+reconcile = %v, want none", got)
	}
	if drift := base.Status().Drift; drift.Adopts != 0 || drift.Repushes != uint64(2*len(wantDegraded)) {
		t.Fatalf("reconcile drift = %+v, want %d re-pushes and no adopts", drift, 2*len(wantDegraded))
	}

	// One more window: the re-pushed leases come due and the whole fleet
	// settles into steady renewal.
	drain(60*time.Second, 15*time.Second)
	testutil.WaitFor(t, "full fleet scheduled again", func() bool {
		return base.ScheduledRenewals() == wantLeases
	})

	status := base.Status()
	run := fleetRun{
		state: fleetState{
			Scheduled: base.ScheduledRenewals(),
			Adapted:   testutil.Gauge(reg, "base.adapted_nodes"),
			Degraded:  testutil.Gauge(reg, "base.degraded_nodes"),
		},
		drift: status.Drift,
	}
	for _, n := range status.Nodes {
		run.state.Nodes = append(run.state.Nodes, convergedNode{Addr: n.Addr, State: n.State, Exts: n.Exts})
	}
	snap := reg.Snapshot()
	run.counters = snap.Counters
	run.gauges = snap.Gauges
	return run
}

// obsFleetRun captures one observability run for same-seed replay
// comparison. RPC latencies are wall-clock and therefore excluded (the fleet
// view is normalized); everything else — sampling decisions, tail-keep,
// ring occupancy, audit spans with their IDs and manual-clock timestamps —
// must replay bit for bit.
type obsFleetRun struct {
	fleet      core.FleetResp
	sampledOut uint64
	tailKept   uint64
	dropped    uint64
	ringUsed   int
	audits     []trace.SpanSnapshot
}

// normalizeFleet zeroes the wall-clock latency sums, which are the only
// non-deterministic part of the fleet view.
func normalizeFleet(f core.FleetResp) core.FleetResp {
	out := f
	out.Methods = append([]core.FleetMethod(nil), f.Methods...)
	for i := range out.Methods {
		out.Methods[i].SumNs, out.Methods[i].MeanNs = 0, 0
	}
	out.Nodes = append([]core.FleetNode(nil), f.Nodes...)
	for i := range out.Nodes {
		out.Nodes[i].SumNs = 0
	}
	out.Degraded = nil
	return out
}

// runObsFleet plays the observability scenario: a full fleet adapts and
// renews with 1% head sampling plus tail-keep on the base tracer and RED
// piggyback reporting from every node, then an audit sweep starts one span
// per node with seeded error and slow picks. It asserts the plane's
// invariants inline and returns the replay capture.
func runObsFleet(t *testing.T, seed int64, nNodes int) obsFleetRun {
	t.Helper()
	clk := clock.NewManual(time.Unix(0, 0))
	net := simnet.New(clk, seed)
	defer net.Close()

	// The tracer reads the manual clock plus a test-controlled skew: bumping
	// the skew between a span's start and end makes it "slow" without
	// advancing the renewal wheel.
	tracer := trace.New(seed)
	var skewMu sync.Mutex
	skew := time.Duration(0)
	tracer.SetNow(func() time.Time {
		skewMu.Lock()
		defer skewMu.Unlock()
		return clk.Now().Add(skew)
	})
	const slowCut = 50 * time.Millisecond
	tracer.SetSampler(trace.SamplerConfig{Rate: 0.01, Seed: seed, SlowThreshold: slowCut})

	signer, err := sign.NewSigner("fleet-base")
	if err != nil {
		t.Fatal(err)
	}
	names := fleetNames(nNodes)
	nodes, stopNodes := newFleet(t, net, clk, signer, names, true)
	defer stopNodes()

	base, err := core.NewBase(core.BaseConfig{
		Name:         "fleet-base",
		Addr:         "fleet-base",
		Caller:       net.Node("fleet-base"),
		Signer:       signer,
		Clock:        clk,
		LeaseDur:     time.Minute,
		RenewRetries: 1,
		CallTimeout:  time.Hour,
		Shards:       16,
		RenewBatch:   64,
		// One renewal worker: concurrent workers interleave their draws from
		// the tracer's ID source, which shuffles sampling decisions between
		// runs — the exact hazard the scheduler's Workers doc calls out for
		// traced scenarios. Replayability needs ordered traffic.
		RenewWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	reg := metrics.New()
	base.Instrument(reg) // an instrumented base asks nodes for piggybacked deltas
	base.Trace(tracer)
	baseMux := transport.NewMux()
	base.ServeOn(baseMux)
	stopBase, err := net.Serve("fleet-base", baseMux)
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
	for _, name := range names {
		if err := base.AdaptNode(context.Background(), name, name); err != nil {
			t.Fatalf("adapt %s: %v", name, err)
		}
	}

	// Two renewal windows: every node serves at least one WantObs batch and
	// reports its RED deltas back.
	for elapsed := time.Duration(0); elapsed < 60*time.Second; elapsed += 15 * time.Second {
		nodes.step(t, base, 15*time.Second)
	}

	// The audit sweep: one span per node, ~1% erroring and ~0.5% slow
	// (disjoint picks), against a 1% head-sampling rate. Tail-keep must
	// rescue every error and every slow span.
	rng := rand.New(rand.NewSource(seed ^ 0xa0d17))
	perm := rng.Perm(nNodes)
	nErr := max(1, nNodes/100)
	nSlow := max(1, nNodes/200)
	isErr := make(map[int]bool, nErr)
	isSlow := make(map[int]bool, nSlow)
	for _, idx := range perm[:nErr] {
		isErr[idx] = true
	}
	for _, idx := range perm[nErr : nErr+nSlow] {
		isSlow[idx] = true
	}
	for i, name := range names {
		_, sp := tracer.StartSpan(context.Background(), "fleet.audit")
		sp.Tag("node", name)
		if isSlow[i] {
			skewMu.Lock()
			skew += slowCut + 10*time.Millisecond
			skewMu.Unlock()
		}
		if isErr[i] {
			sp.End(fmt.Errorf("audit %s failed", name))
		} else {
			sp.End(nil)
		}
	}

	// Zero dropped error/slow traces: despite the 1% rate, every error span
	// and every slow span is in the ring.
	audits := tracer.Spans(trace.Filter{Name: "fleet.audit"})
	gotErr, gotSlow := 0, 0
	for _, s := range audits {
		if s.Err != "" {
			gotErr++
		} else if s.Duration() >= slowCut {
			gotSlow++
		}
	}
	if gotErr != nErr {
		t.Errorf("error audit spans recorded = %d, want all %d", gotErr, nErr)
	}
	if gotSlow != nSlow {
		t.Errorf("slow audit spans recorded = %d, want all %d", gotSlow, nSlow)
	}

	// Bounded trace memory: sampling kept the ring under capacity with zero
	// evictions across a >=10k-span workload.
	used, capacity := tracer.RingOccupancy()
	if used > capacity {
		t.Errorf("ring occupancy %d over capacity %d", used, capacity)
	}
	if dropped := tracer.SpansDropped(); dropped != 0 {
		t.Errorf("ring evicted %d spans; sampling should have kept it bounded", dropped)
	}
	sampledOut, tailKept := tracer.SamplerStats()
	if sampledOut == 0 || tailKept == 0 {
		t.Errorf("sampler stats = (%d out, %d tail-kept), want both active", sampledOut, tailKept)
	}

	// Fleet aggregation: every node reported, and the per-method rollup and
	// per-node rows are two groupings of the same deltas.
	st := base.FleetStatus()
	if st.Reports == 0 || len(st.Nodes) != nNodes {
		t.Errorf("fleet view: %d reports over %d nodes, want >0 over %d", st.Reports, len(st.Nodes), nNodes)
	}
	var mCount, nCount uint64
	for _, m := range st.Methods {
		mCount += m.Count
	}
	for _, n := range st.Nodes {
		nCount += n.Count
	}
	// Node-side ground truth: every call a node's RED instruments counted,
	// less the renewBatch that carried its last report — RED counts a call
	// only after its handler, and so its report, is done.
	var groundTruth uint64
	for _, n := range nodes.nodes {
		n.reg.VisitHistograms(func(name string, count uint64, _ int64) {
			if strings.HasPrefix(name, transport.REDSuffix(transport.REDServerPrefix, "ns", "")) {
				groundTruth += count
			}
		})
		groundTruth--
	}
	if mCount != nCount || nCount != groundTruth {
		t.Errorf("rollup calls %d, node rows %d, node-side reported %d: must all agree", mCount, nCount, groundTruth)
	}
	seen := make(map[string]bool, len(st.Methods))
	for _, m := range st.Methods {
		seen[m.Method] = true
	}
	if !seen[core.MethodRenewBatch] || !seen[core.MethodApplyBatch] {
		t.Errorf("rollup methods = %v, want the batch surface present", st.Methods)
	}

	// The same view over the base.fleet RPC — the surface midasctl top polls.
	rpcView, err := transport.Invoke[core.EmptyResp, core.FleetResp](
		context.Background(), net.Node("probe"), "fleet-base", core.MethodBaseFleet, core.EmptyResp{})
	if err != nil {
		t.Fatalf("base.fleet RPC: %v", err)
	}
	if got, want := normalizeFleet(rpcView), normalizeFleet(st); !reflect.DeepEqual(got, want) {
		t.Errorf("base.fleet RPC view diverges from FleetStatus:\n got: %+v\nwant: %+v", got, want)
	}

	return obsFleetRun{
		fleet:      normalizeFleet(st),
		sampledOut: sampledOut,
		tailKept:   tailKept,
		dropped:    tracer.SpansDropped(),
		ringUsed:   used,
		audits:     audits,
	}
}

// TestFleetObservability is the fleet-scale proof for the observability
// plane: a fleet of 10k real receivers under 1% head sampling with tail-keep holds its
// trace ring bounded without losing a single error or slow span, the base's
// fleet rollup agrees with per-node ground truth, and a same-seed replay
// reproduces every sampling decision, span ID and timestamp bit for bit.
func TestFleetObservability(t *testing.T) {
	seed := testutil.SeedFromEnv(t, "FLEET_SEED", fleetSeedDefault)
	nNodes := fleetSize(t)
	t.Logf("fleet obs: %d nodes, seed %d", nNodes, seed)

	first := runObsFleet(t, seed, nNodes)
	replay := runObsFleet(t, seed, nNodes)
	if !reflect.DeepEqual(replay, first) {
		t.Errorf("same-seed replay diverged:\n first: %d/%d sampled-out/tail-kept, %d ring, %d audits\nreplay: %d/%d sampled-out/tail-kept, %d ring, %d audits",
			first.sampledOut, first.tailKept, first.ringUsed, len(first.audits),
			replay.sampledOut, replay.tailKept, replay.ringUsed, len(replay.audits))
	}
}

// TestFleetChurnConverges is the fleet-scale proof for this platform's base
// station: a fleet of 10k real receivers (FLEET_NODES to resize) survives
// seeded churn — partitions, crashes, roams — and converges to exactly the
// state of a fault-free fleet, while a same-seed replay reproduces the faulty
// run's metrics bit for bit. Unreachable nodes withdraw their extensions
// when the leases lapse, no receiver ever holds one past its deadline (S1),
// and the base repairs them by re-pushing.
func TestFleetChurnConverges(t *testing.T) {
	seed := testutil.SeedFromEnv(t, "FLEET_SEED", fleetSeedDefault)
	nNodes := fleetSize(t)
	t.Logf("fleet: %d nodes, seed %d", nNodes, seed)

	clean := runFleet(t, seed, nNodes, false)
	faulty := runFleet(t, seed, nNodes, true)
	replay := runFleet(t, seed, nNodes, true)

	// Convergence: churn must leave no trace in the distribution state.
	if !reflect.DeepEqual(faulty.state, clean.state) {
		t.Errorf("faulty fleet did not converge to the fault-free state:\n faulty: scheduled=%d adapted=%d degraded=%d nodes=%d\n  clean: scheduled=%d adapted=%d degraded=%d nodes=%d",
			faulty.state.Scheduled, faulty.state.Adapted, faulty.state.Degraded, len(faulty.state.Nodes),
			clean.state.Scheduled, clean.state.Adapted, clean.state.Degraded, len(clean.state.Nodes))
	}
	// Replayability: the seed pins the whole run, drift stats and counters
	// included.
	if !reflect.DeepEqual(replay, faulty) {
		t.Errorf("same-seed replay diverged:\n first: drift=%+v counters=%v\nreplay: drift=%+v counters=%v",
			faulty.drift, faulty.counters, replay.drift, replay.counters)
	}
	// And churn really happened: the faulty run parked nodes (runFleet has
	// already checked that it re-pushed to each of them).
	if faulty.counters["base.degrades"] == 0 {
		t.Error("faulty run parked no nodes: churn plan did not bite")
	}
}
