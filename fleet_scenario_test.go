// Fleet-scale scenario: one base station keeping >=10k simulated nodes
// adapted through churn — roams, crashes and partitions — on the timer-wheel
// renewal scheduler, batched RPCs and the sharded node table. The run is
// seeded and driven entirely by the manual clock, so a faulty fleet must
// converge to the exact state of a fault-free fleet, and a same-seed replay
// must reproduce the faulty run bit for bit. Set FLEET_NODES / FLEET_SEED to
// resize or replay.
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

// fleetNodeCount sizes the fleet: FLEET_NODES when set, 10k by default, and
// a smaller fleet under the race detector so -race suites stay quick.
func fleetNodeCount(t *testing.T) int {
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

// fleetGrant is one lease a fleet node holds.
type fleetGrant struct {
	version  int
	leaseID  string
	baseAddr string
	deadline time.Time
}

// fleetNode is a lightweight mobile node for fleet runs: it serves the
// receiver's batch and inventory surface straight out of a grant map, with none of a real receiver's
// weaving or sandboxing. Lease IDs come from a per-node counter so a fleet's
// state is independent of cross-node call order.
type fleetNode struct {
	name string
	clk  clock.Clock

	mu      sync.Mutex
	seq     int
	grants  map[string]fleetGrant // extension name -> grant
	obsReg  *metrics.Registry     // when set, WantObs batches answer with deltas
	obsSent map[string]fleetObsCum
}

// fleetObsCum is the cumulative RED state already reported upstream, so the
// next piggybacked report carries only the delta — the same bookkeeping a
// real receiver keeps.
type fleetObsCum struct {
	count  uint64
	errors uint64
	sumNs  int64
}

func newFleetNode(name string, clk clock.Clock) *fleetNode {
	return &fleetNode{name: name, clk: clk, grants: make(map[string]fleetGrant)}
}

// installLocked grants a lease for one pushed extension.
func (n *fleetNode) installLocked(req core.InstallReq) string {
	n.seq++
	g := fleetGrant{
		version:  req.Signed.Ext.Version,
		leaseID:  fmt.Sprintf("%s-L%d", n.name, n.seq),
		baseAddr: req.BaseAddr,
		deadline: n.clk.Now().Add(time.Duration(req.DurMillis) * time.Millisecond),
	}
	n.grants[req.Signed.Ext.Name] = g
	return g.leaseID
}

// renewLocked extends the lease with the given ID, reporting the granted
// duration or an error text for unknown (expired, revoked) leases.
func (n *fleetNode) renewLocked(id string, durMillis int64) (int64, string) {
	for name, g := range n.grants {
		if g.leaseID == id {
			g.deadline = n.clk.Now().Add(time.Duration(durMillis) * time.Millisecond)
			n.grants[name] = g
			return durMillis, ""
		}
	}
	return 0, fmt.Sprintf("unknown lease %s", id)
}

func (n *fleetNode) serveOn(mux *transport.Mux) {
	transport.Register(mux, core.MethodApplyBatch, func(_ context.Context, req core.ApplyBatchReq) (core.ApplyBatchResp, error) {
		n.mu.Lock()
		defer n.mu.Unlock()
		resp := core.ApplyBatchResp{
			Installs: make([]core.InstallItemResp, len(req.Installs)),
			Revokes:  make([]core.RevokeItemResp, len(req.Revokes)),
		}
		for i, ins := range req.Installs {
			resp.Installs[i].LeaseID = n.installLocked(ins)
		}
		for _, name := range req.Revokes {
			delete(n.grants, name) // absent is success, like the receiver
		}
		return resp, nil
	})
	transport.Register(mux, core.MethodRenewBatch, func(_ context.Context, req core.RenewBatchReq) (core.RenewBatchResp, error) {
		n.mu.Lock()
		defer n.mu.Unlock()
		resp := core.RenewBatchResp{Items: make([]core.RenewItemResp, len(req.Items))}
		for i, it := range req.Items {
			resp.Items[i].DurMillis, resp.Items[i].Err = n.renewLocked(it.LeaseID, it.DurMillis)
		}
		if req.WantObs {
			resp.Obs = n.obsDeltaLocked()
		}
		return resp, nil
	})
	transport.Register(mux, core.MethodInventory, func(_ context.Context, _ core.EmptyResp) (core.InventoryResp, error) {
		n.mu.Lock()
		defer n.mu.Unlock()
		resp := core.InventoryResp{Node: n.name}
		for name, g := range n.grants {
			resp.Items = append(resp.Items, core.InventoryItem{
				Name:           name,
				Version:        g.version,
				BaseAddr:       g.baseAddr,
				LeaseID:        g.leaseID,
				DeadlineMillis: g.deadline.UnixMilli(),
			})
		}
		sort.Slice(resp.Items, func(i, j int) bool { return resp.Items[i].Name < resp.Items[j].Name })
		return resp, nil
	})
}

// obsDeltaLocked computes the node's piggyback report from its own RED
// registry, mirroring a real receiver's delta bookkeeping: cumulative
// counters minus what was already reported, nil when nothing is new.
func (n *fleetNode) obsDeltaLocked() *core.ObsReport {
	if n.obsReg == nil {
		return nil
	}
	if n.obsSent == nil {
		n.obsSent = make(map[string]fleetObsCum)
	}
	prefix := transport.REDSuffix(transport.REDServerPrefix, "ns", "")
	rep := &core.ObsReport{}
	n.obsReg.VisitHistograms(func(name string, count uint64, sum int64) {
		method, ok := strings.CutPrefix(name, prefix)
		if !ok || method == "" {
			return
		}
		cum := fleetObsCum{
			count:  count,
			sumNs:  sum,
			errors: n.obsReg.CounterValue(transport.REDSuffix(transport.REDServerPrefix, "errors", method)),
		}
		last := n.obsSent[method]
		d := core.ObsMethodDelta{
			Method: method,
			Count:  cum.count - last.count,
			Errors: cum.errors - last.errors,
			SumNs:  cum.sumNs - last.sumNs,
		}
		if d.Count == 0 && d.Errors == 0 && d.SumNs == 0 {
			return
		}
		n.obsSent[method] = cum
		rep.Methods = append(rep.Methods, d)
	})
	if len(rep.Methods) == 0 {
		return nil
	}
	sort.Slice(rep.Methods, func(i, j int) bool { return rep.Methods[i].Method < rep.Methods[j].Method })
	return rep
}

// reportedCalls sums the RED call counts this node has reported upstream so
// far — the node-side ground truth the base's fleet view must agree with.
func (n *fleetNode) reportedCalls() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total uint64
	for _, c := range n.obsSent {
		total += c.count
	}
	return total
}

// fleetNodeState is one node's row in a convergence summary: everything
// about distribution state, nothing about how it got there.
type fleetNodeState struct {
	Addr  string
	State string
	Exts  []string
}

// fleetState is the fault-insensitive convergence summary: a healed, fully
// reconciled fleet must reach the same fleetState a fault-free run reaches.
type fleetState struct {
	Nodes     []fleetNodeState
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
		if err := base.AdaptNode(name, name); err != nil {
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
			clk.Advance(step)
			testutil.WaitFor(t, "renewals quiesced", base.RenewalsQuiesced)
		}
	}

	faults := planFleetFaults(seed, names)
	clk.Advance(5 * time.Second)

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
			if err := base.AdaptNode(name, name); err != nil {
				t.Fatalf("re-adapt roamer %s: %v", name, err)
			}
		}
	}

	// One renewal window plus retry slack: unreachable nodes fail their
	// renewals, trip their breakers and park degraded; everyone else renews.
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

	// Heal everything and let the breakers' cooldown elapse; degraded nodes
	// are parked (no renewal traffic), the rest keep renewing.
	net.HealAll()
	for _, name := range faults.crashed {
		net.Restart(name)
	}
	drain(60*time.Second, 15*time.Second)

	// Anti-entropy: one reconcile round promotes every parked node and
	// adopts the leases its fake receiver still holds.
	base.ReconcileNow(context.Background())
	if got := base.Degraded(); len(got) != 0 {
		t.Fatalf("degraded after heal+reconcile = %v, want none", got)
	}

	// One more window: adopted leases come due (their deadlines lapsed
	// during the outage) and the whole fleet settles into steady renewal.
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
		run.state.Nodes = append(run.state.Nodes, fleetNodeState{Addr: n.Addr, State: n.State, Exts: n.Exts})
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

	names := make([]string, nNodes)
	for i := range names {
		names[i] = fmt.Sprintf("node-%05d", i)
	}
	fleet := make(map[string]*fleetNode, nNodes)
	for _, name := range names {
		fn := newFleetNode(name, clk)
		fn.obsReg = metrics.New()
		mux := transport.NewMux()
		fn.serveOn(mux)
		stop, err := net.Serve(name, transport.REDHandling(mux, fn.obsReg))
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		fleet[name] = fn
	}

	signer, err := sign.NewSigner("fleet-base")
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.NewBase(core.BaseConfig{
		Name:          "fleet-base",
		Addr:          "fleet-base",
		Caller:        net.Node("fleet-base"),
		Signer:        signer,
		Clock:         clk,
		LeaseDur:      time.Minute,
		RenewFraction: 0.5,
		RenewRetries:  1,
		CallTimeout:   time.Hour,
		Shards:        16,
		RenewBatch:    64,
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
		if err := base.AdaptNode(name, name); err != nil {
			t.Fatalf("adapt %s: %v", name, err)
		}
	}

	// Two renewal windows: every node serves at least one WantObs batch and
	// reports its RED deltas back.
	for elapsed := time.Duration(0); elapsed < 60*time.Second; elapsed += 15 * time.Second {
		clk.Advance(15 * time.Second)
		testutil.WaitFor(t, "renewals quiesced", base.RenewalsQuiesced)
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
	var groundTruth uint64
	for _, n := range st.Nodes {
		nCount += n.Count
	}
	for _, fn := range fleet {
		groundTruth += fn.reportedCalls()
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
// plane: a 10k-node fleet under 1% head sampling with tail-keep holds its
// trace ring bounded without losing a single error or slow span, the base's
// fleet rollup agrees with per-node ground truth, and a same-seed replay
// reproduces every sampling decision, span ID and timestamp bit for bit.
func TestFleetObservability(t *testing.T) {
	seed := testutil.SeedFromEnv(t, "FLEET_SEED", fleetSeedDefault)
	nNodes := fleetNodeCount(t)
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
// station: a 10k-node fleet (FLEET_NODES to resize) survives seeded churn —
// partitions, crashes, roams — and converges to exactly the state of a
// fault-free fleet, while a same-seed replay reproduces the faulty run's
// metrics bit for bit.
func TestFleetChurnConverges(t *testing.T) {
	seed := testutil.SeedFromEnv(t, "FLEET_SEED", fleetSeedDefault)
	nNodes := fleetNodeCount(t)
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
	// And churn really happened: the faulty run parked and repaired nodes.
	if faulty.counters["base.degrades"] == 0 {
		t.Error("faulty run parked no nodes: churn plan did not bite")
	}
	if faulty.drift.Adopts == 0 {
		t.Error("reconciliation adopted no leases after the heal")
	}
}
