package main

import (
	"fmt"
	"time"
)

// The renewal workload exists because it stresses the lease timer wheel and
// worker pool, batched midas.renewBatch, small wire bodies, the receivers'
// grantors, the base's shard locks and the fleet-observability piggyback. No
// analysis, compile or weave runs after set-up, so a change to the
// adaptation path should leave it flat.
//
// Set-up adapts a steady fleet of real receivers, each holding one lease per
// policy extension. The timed phase then advances the base's manual clock
// one renewal window at a time and times each window until the renewal
// scheduler has quiesced.
const (
	fleetNodes = 1000
	// Set-up arrivals per second, the arrival workload's wave rate. At
	// 1000/s the base fell behind on a slow stretch of the host, and the
	// lookup dropped its watch (NOTES.md, finding 1) in a set-up of each
	// of four runs out of four.
	fleetRate = waveRate
	window    = leaseDur / 2
	// quiescePoll is how often a window checks whether the renewals are
	// done. It rounds each window up by at most about this much (1% of a
	// window at seed). In four alternating pairs of runs, polling every
	// 20 µs instead moved the windows' median twice as much between runs
	// (spread 0.12 against 0.06) and cost CPU.
	quiescePoll = 250 * time.Microsecond
)

type renewalTrial struct {
	h     *hall
	nodes []*node
	setup admission
}

func setupRenewal(e *env, rec *recorder) (trial, error) {
	h, err := newHall(hallConfig{seed: e.seed, rec: rec, policy: e.adv.adaptPolicy()})
	if err != nil {
		return nil, err
	}
	t := &renewalTrial{h: h}
	rng := e.rng(2)
	for i := 0; i < fleetNodes; i++ {
		n, err := h.newNode(fmt.Sprintf("fleet-%04d-%06x", i, rng.Intn(1<<24)))
		if err != nil {
			t.close()
			return nil, err
		}
		t.nodes = append(t.nodes, n)
	}
	t.setup = admit(h, t.nodes, arrivalOffsets(rng, len(t.nodes), fleetRate), 1)
	if len(t.setup.adapted) != len(t.nodes) || !t.setup.settled {
		t.close()
		return nil, fmt.Errorf("renewal set-up adapted %d of %d nodes (base recorded every grant: %v; first failure: %v)",
			len(t.setup.adapted), len(t.nodes), t.setup.settled, t.setup.firstErr())
	}
	return t, nil
}

func (t *renewalTrial) close() {
	for _, n := range t.nodes {
		n.close()
	}
	t.h.close()
}

// windowMark is one timed renewal window, in recorder time when traced.
type windowMark struct{ start, end int64 }

func (t *renewalTrial) run(e *env) *outcome {
	o := &outcome{named: map[string]float64{}, layers: map[string]float64{}}
	h := t.h
	leases := h.base.ScheduledRenewals()
	failures := func() uint64 {
		return h.reg.CounterValue("lease.renew_failures") + h.reg.CounterValue("lease.renew_errors")
	}
	var marks []windowMark
	deadline := time.Now().Add(e.seconds) //lint:allow clockcheck (the benchmark measures wall-clock time)
	mw := startMem()
	var busy time.Duration
	for time.Now().Before(deadline) { //lint:allow clockcheck (the benchmark measures wall-clock time)
		f0 := failures()
		start := time.Now() //lint:allow clockcheck (the benchmark measures wall-clock time)
		h.clk.Advance(window)
		// Poll with a sleep: a spinning poller would take a CPU from the
		// renewal workers it is waiting for, and so, less so, would one
		// that wakes every few tens of microseconds.
		for !h.base.RenewalsQuiesced() {
			time.Sleep(quiescePoll) //lint:allow clockcheck (the benchmark paces and polls in real time)
		}
		end := time.Now() //lint:allow clockcheck (the benchmark measures wall-clock time)
		busy += end.Sub(start)
		o.attempted++
		ms := float64(end.Sub(start)) / 1e6
		if failures() != f0 {
			o.failed++
			ms = posInf
		}
		o.lat = append(o.lat, ms)
		if rec := h.cfg.rec; rec != nil {
			marks = append(marks, windowMark{rec.at(start), rec.at(end)})
		}
	}
	mallocs, bytes, pause, cycles := mw.stop()
	o.gcPauseMS, o.gcCycles = pause, cycles
	windows := float64(len(o.lat))
	o.opsPerS = float64(leases) * windows / busy.Seconds()
	o.settle()
	t.check(o, leases)
	o.named["renew_window_ms"] = o.p50
	o.named[fmt.Sprintf("renew_window_p%g_ms", o.tailQ*100)] = o.tail
	o.named["leases"] = float64(leases)
	o.named["leases_per_s"] = o.opsPerS
	o.layers["renewal.allocs_per_lease"] = mallocs / (windows * float64(leases))
	o.layers["renewal.bytes_per_lease"] = bytes / (windows * float64(leases))
	if rec := h.cfg.rec; rec != nil {
		renewalLayers(rec, marks, leases, o.layers)
		pipelineLayers(rec, t.setup.marks, o.layers)
		ledgerLayers(h, o)
	}
	return o
}

// check verifies the fleet after the windows: no lease expired anywhere,
// and every node holds exactly the grants the base believes it holds.
func (t *renewalTrial) check(o *outcome, leases int) {
	if n := t.h.reg.CounterValue("lease.renew_failures") + t.h.reg.CounterValue("lease.renew_errors"); n > 0 {
		o.problemf("%d renewals failed", n)
	}
	grants := map[string][]string{}
	for _, ns := range t.h.base.Status().Nodes {
		if ns.State != "adapted" {
			o.problemf("node %s is %s", ns.Addr, ns.State)
		}
		grants[ns.Addr] = ns.Exts
	}
	held := 0
	for _, n := range t.nodes {
		if x := n.reg.CounterValue("ext.expiries"); x > 0 {
			o.problemf("%s: %d extensions expired", n.name, x)
		}
		inv := n.recv.Inventory()
		held += len(inv)
		want := grants[n.addr]
		if len(inv) != len(want) {
			o.problemf("%s holds %d extensions, the base granted %d", n.name, len(inv), len(want))
			continue
		}
		for i, it := range inv { // both sorted by name
			if it.Name != want[i] || it.BaseAddr != t.h.addr {
				o.problemf("%s holds %s from %s, the base granted %s", n.name, it.Name, it.BaseAddr, want[i])
			}
		}
	}
	if held != leases {
		o.problemf("nodes hold %d leases, the base renews %d", held, leases)
	}
}
