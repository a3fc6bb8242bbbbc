package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"
)

// The arrival workload exists because it is the only one where sign
// verification, lvm/analysis, the advice compiler, weave insert, replace and
// withdraw, registry/event notification and large wire bodies do most of the
// work: nodes walk into the hall, get the policy set woven, see one
// extension bumped and walk out again through lease expiry. Part of every
// wave after the first are nodes returning after their earlier grant
// lapsed, so a cache keyed by extension version would show. Renewal and TCP
// do almost nothing here.
//
// A run is as many paced waves as fill it. Each wave is an open loop of
// arrivals at a fixed mean rate, about a third of the adaptation throughput
// of 600 simultaneous arrivals at seed, so a slowdown shows as queueing (at
// half, GC cycles alone tip a wave into queueing that swings from run to
// run); once the wave is adapted one extension gets version bumps
// (ReplaceExtension) and the wave departs. There is no burst wave: a burst
// of about 100 arrivals or more makes the lookup drop the base's watch, so
// most of it fails (NOTES.md, finding 1).
const (
	waveNodes     = 600
	waveRate      = 400.0 // arrivals per second
	returnShare   = 0.4   // of each paced wave
	maxReturnPool = 240   // departed nodes kept around to return
	// A run spends about waveNodes/waveRate+waveExtra on each wave with its
	// rollouts and departure; the number of waves fills the run.
	waveExtra = 0.6
	// Each wave sees this many version bumps in a row, so the rollout
	// figures are medians over a few dozen rollouts per run.
	rolloutsPerWave = 2
)

type arrivalTrial struct {
	adv     advice
	h       *hall
	rng     *rand.Rand
	names   map[string]bool
	live    map[*node]bool
	ready   []*node // fresh nodes built by set-up, for the first wave
	pool    []*node // departed nodes that may return
	version int     // of movelimit in the policy set
}

func setupArrival(e *env, rec *recorder) (trial, error) {
	h, err := newHall(hallConfig{seed: e.seed, rec: rec, policy: e.adv.adaptPolicy()})
	if err != nil {
		return nil, err
	}
	t := &arrivalTrial{adv: e.adv, h: h, rng: e.rng(1), names: map[string]bool{}, live: map[*node]bool{}, version: 1}
	for len(t.ready) < waveNodes {
		n, err := t.freshNode()
		if err != nil {
			t.close()
			return nil, err
		}
		t.ready = append(t.ready, n)
	}
	return t, nil
}

// freshNode builds a node the hall has never seen, with a seeded name.
func (t *arrivalTrial) freshNode() (*node, error) {
	name := fmt.Sprintf("arm-%08x", t.rng.Uint32())
	for t.names[name] {
		name = fmt.Sprintf("arm-%08x", t.rng.Uint32())
	}
	t.names[name] = true
	n, err := t.h.newNode(name)
	if err != nil {
		return nil, err
	}
	t.live[n] = true
	return n, nil
}

func (t *arrivalTrial) close() {
	for n := range t.live {
		n.close()
	}
	t.h.close()
}

func (t *arrivalTrial) run(e *env) *outcome {
	o := &outcome{named: map[string]float64{}, layers: map[string]float64{}}
	// The run's length is set by a fixed number of waves for its seconds,
	// so every run of a given length measures the same work.
	waves := max(1, int(math.Round(e.seconds.Seconds()/(waveNodes/waveRate+waveExtra))))
	mw := startMem()

	var (
		paced             []arrivalMark
		late              sample
		rollouts          sample // ms each
		rollRates         sample // nodes re-woven per second, each
		mallocs, bytes    float64
		calls             uint64
		returned, arrived int
	)
	for w := 0; w < waves; w++ {
		nodes, nRet, err := t.waveNodes()
		if err != nil {
			o.problemf("building wave: %v", err)
			break
		}
		returned += nRet
		arrived += len(nodes)

		// Each wave starts from a collected heap, so the GC cycles it runs
		// into fall at the same points of every wave and every run.
		runtime.GC()
		wm := startMem()
		calls0 := t.h.reg.CounterValue("transport.calls")
		wave := admit(t.h, nodes, arrivalOffsets(t.rng, len(nodes), waveRate), t.version)
		m, b, _, _ := wm.stop()
		mallocs, bytes = mallocs+m, bytes+b
		calls += t.h.reg.CounterValue("transport.calls") - calls0
		account(o, wave.marks)
		if !wave.settled {
			o.problemf("the base did not record every grant of a wave")
		}
		forget(wave.marks)
		paced = append(paced, wave.marks...)
		late = append(late, wave.late...)

		for r := 0; r < rolloutsPerWave; r++ {
			if took, n := t.rollout(o, wave.adapted); n > 0 {
				rollouts = append(rollouts, float64(took)/1e6)
				rollRates = append(rollRates, float64(n)/took.Seconds())
			}
		}
		if !depart(t.h, nodes) {
			o.problemf("wave did not depart through lease expiry")
		}
		t.retire(nodes)
	}

	for _, m := range paced {
		o.lat = append(o.lat, m.latencyMS())
	}
	o.opsPerS = rollRates.median()
	_, _, o.gcPauseMS, o.gcCycles = mw.stop()
	// heap_mb is read after the waves departed.
	o.settle()

	o.named["adapt_p50_ms"] = o.p50
	o.named[fmt.Sprintf("adapt_p%g_ms", o.tailQ*100)] = o.tail
	o.named["rollout_ms"] = rollouts.median()
	o.named["rollout_nodes_per_s"] = o.opsPerS
	o.named["rollouts"] = float64(len(rollouts))
	o.named["gen_late_max_ms"] = quantile(late.sorted(), 1)

	adapts := float64(len(paced))
	o.layers["arrival.allocs_per_adapt"] = mallocs / adapts
	o.layers["arrival.bytes_per_adapt"] = bytes / adapts
	o.layers["arrival.rpcs_per_adapt"] = float64(calls) / adapts
	o.layers["arrival.return_share"] = float64(returned) / float64(arrived)
	o.layers["arrival.gen_late_ms"] = late.median()
	o.layers["arrival.rollout_ms"] = rollouts.median()
	if t.h.cfg.rec != nil {
		pipelineLayers(t.h.cfg.rec, paced, o.layers)
		ledgerLayers(t.h, o)
	}
	return o
}

// waveNodes picks the next wave: a fixed share of returning nodes, chosen by
// the seed from those whose grant lapsed, and fresh nodes for the rest (set-up
// built the first wave's), in seeded order.
func (t *arrivalTrial) waveNodes() ([]*node, int, error) {
	nRet := min(int(math.Round(waveNodes*returnShare)), len(t.pool))
	t.rng.Shuffle(len(t.pool), func(i, j int) { t.pool[i], t.pool[j] = t.pool[j], t.pool[i] })
	nodes := append([]*node(nil), t.pool[:nRet]...)
	t.pool = t.pool[nRet:]
	take := min(waveNodes-len(nodes), len(t.ready))
	nodes = append(nodes, t.ready[:take]...)
	t.ready = t.ready[take:]
	for len(nodes) < waveNodes {
		n, err := t.freshNode()
		if err != nil {
			return nil, 0, err
		}
		nodes = append(nodes, n)
	}
	t.rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	return nodes, nRet, nil
}

// rollout bumps movelimit while the wave is in the hall and times until
// every adapted node has dispatched the new version; every node must then
// report that version. It returns the time taken and how many nodes it
// re-wove.
func (t *arrivalTrial) rollout(o *outcome, adapted []*node) (time.Duration, int) {
	t.version++
	for _, n := range adapted {
		n.arm([]string{"movelimit"}, limitFor(t.version))
	}
	runtime.GC()
	start := time.Now() //lint:allow clockcheck (the benchmark measures wall-clock time)
	if err := t.h.base.ReplaceExtension(t.adv.movelimitExt(t.version)); err != nil {
		o.problemf("ReplaceExtension: %v", err)
		for _, n := range adapted {
			n.disarm()
		}
		return 0, 0
	}
	marks := make([]arrivalMark, len(adapted))
	for i, n := range adapted {
		marks[i] = arrivalMark{node: n, due: start, start: start}
	}
	collect(marks, start.Add(adaptTimeout))
	account(o, marks)
	var last time.Time
	done := 0
	for _, m := range marks {
		if m.ok() {
			done++
			last = maxTime(last, m.res.end)
		}
		if v := m.node.versions()["movelimit"]; v != t.version {
			o.problemf("%s reports movelimit v%d after rollout of v%d", m.node.name, v, t.version)
		}
	}
	return last.Sub(start), done
}

// retire returns departed nodes to the pool that may come back; beyond
// maxReturnPool, some leave for good.
func (t *arrivalTrial) retire(nodes []*node) {
	t.pool = append(t.pool, nodes...)
	if drop := len(t.pool) - maxReturnPool; drop > 0 {
		for _, n := range t.pool[:drop] {
			n.close()
			delete(t.live, n)
		}
		t.pool = append([]*node(nil), t.pool[drop:]...)
	}
}
