package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/lvm"
	"repro/internal/metrics"
	"repro/internal/svc"
	"repro/internal/transport"
)

// The remote-call workload exists because it reads the weave table (join
// point dispatch through aop, the sandbox and the LVM interpreter) while
// arrival writes it, so a weave change that trades one for the other shows.
// It is also the only workload on transport's TCP envelope, and the only
// one whose body (svc.invoke) still goes through gob.
//
// The Fig. 2 adapted call goes over loopback TCP (not a real link) to a node
// whose session, access-control and logger builtins plus one LVM advice
// were pushed there by a real base. One closed-loop operator, waiting for
// each reply on its own connection, calls Arm.move; a fixed, seeded share of
// calls comes from a caller the policy must refuse. There is one operator,
// not two: with two closed-loop clients on 2 CPUs the machine is saturated
// and the run falls into one of two speed modes (NOTES.md). One client also
// keeps the client goroutines and connections within any machine's CPUs.
const (
	callRounds    = 5 // operator sessions per run, each on a fresh connection
	intruderShare = 0.05
)

type remoteCallTrial struct {
	h     *hall
	node  *node
	setup admission
}

func setupRemoteCall(e *env, rec *recorder) (trial, error) {
	h, err := newHall(hallConfig{seed: e.seed, tcp: true, rec: rec, policy: e.adv.callPolicy()})
	if err != nil {
		return nil, err
	}
	t := &remoteCallTrial{h: h}
	if t.node, err = h.newNode("arm-remote"); err != nil {
		t.close()
		return nil, err
	}
	t.setup = admit(h, []*node{t.node}, nil, 1)
	if len(t.setup.adapted) != 1 || !t.setup.settled {
		t.close()
		return nil, fmt.Errorf("remote-call set-up: node not adapted (%v, base recorded its grants: %v)", t.setup.marks[0].res.err, t.setup.settled)
	}
	return t, nil
}

func (t *remoteCallTrial) close() {
	if t.node != nil {
		t.node.close()
	}
	t.h.close()
}

// callTally is the outcome of the operator's calls.
type callTally struct {
	attempted, failed, ioErrors int64
	lat                         sample // operator calls, ms
	gob, bodies                 uint64 // request bodies sent in gob, and in all
	took                        time.Duration
}

func (t *remoteCallTrial) run(e *env) *outcome {
	o := &outcome{named: map[string]float64{}, layers: map[string]float64{}}
	var all callTally
	var roundP50s []string
	mw := startMem()
	for r := 0; r < callRounds; r++ {
		c := t.round(e, o, r, e.seconds/callRounds)
		roundP50s = append(roundP50s, fmt.Sprintf("%.0f", c.lat.median()*1e3))
		all.attempted += c.attempted
		all.failed += c.failed
		all.ioErrors += c.ioErrors
		o.lat = append(o.lat, c.lat...)
		all.gob += c.gob
		all.bodies += c.bodies
		all.took += c.took
	}
	mallocs, bytes, pause, cycles := mw.stop()
	o.gcPauseMS, o.gcCycles = pause, cycles

	o.attempted, o.failed = all.attempted, all.failed
	o.opsPerS = float64(o.attempted) / all.took.Seconds()
	o.settle()
	o.named["call_p50_us"] = o.p50 * 1e3
	o.named[fmt.Sprintf("call_p%g_us", o.tailQ*100)] = o.tail * 1e3
	o.named["call_per_s"] = o.opsPerS
	o.named["io_errors"] = float64(all.ioErrors)
	fmt.Printf("# rounds call_p50_us=%s\n", strings.Join(roundP50s, ","))
	o.layers["transport.io_errors"] = float64(all.ioErrors)
	o.layers["transport.gob_share"] = float64(all.gob) / float64(all.bodies)
	o.layers["remote-call.allocs_per_call"] = mallocs / float64(o.attempted)
	o.layers["remote-call.bytes_per_call"] = bytes / float64(o.attempted)
	if rec := t.h.cfg.rec; rec != nil {
		callLayers(rec, o.layers)
		pipelineLayers(rec, t.setup.marks, o.layers)
		ledgerLayers(t.h, o)
	}
	return o
}

// round is one operator session of length d on a fresh connection: the
// operator sends its next call only when the previous one has returned.
// Every call is an attempted operation. An operator call must come back
// clamped; an intruder call must be refused by the access-control advice.
// Anything else (a transport error included) is a failed operation, and a
// wrong answer is also a wrong output. Failed operator calls enter the
// latency sample as +Inf.
func (t *remoteCallTrial) round(e *env, o *outcome, r int, d time.Duration) callTally {
	tcp := transport.NewTCPCaller()
	defer tcp.Close()
	reg := metrics.New()
	tcp.Instrument(reg)
	c := t.h.wrapClient(tcp)
	rng := e.rng(int64(100 + 10*r))

	var tally callTally
	start := time.Now() //lint:allow clockcheck (the benchmark measures wall-clock time)
	deadline := start.Add(d)
	// The session's calls share one context that outlives them and is
	// cancelled only once the session's connection is no longer used.
	// svc.Call cancels a context per call, and that cancellation can reach
	// the transport's per-call watcher after the call returned and poison
	// the pooled connection's next call (NOTES.md, finding 3).
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(adaptTimeout))
	defer cancel()
	for time.Now().Before(deadline) { //lint:allow clockcheck (the benchmark measures wall-clock time)
		who := operator
		if rng.Float64() < intruderShare {
			who = intruder
		}
		arg := int64(rng.Intn(181))
		callStart := time.Now() //lint:allow clockcheck (the benchmark measures wall-clock time)
		resp, err := transport.Invoke[svc.InvokeReq, svc.InvokeResp](ctx, c, t.node.tcpAddr, svc.MethodInvoke, svc.InvokeReq{
			Service: armService, Method: armMethod, Caller: who, Args: []lvm.Value{lvm.Int(arg)},
		})
		v := resp.Result
		took := float64(time.Since(callStart)) / 1e6
		tally.attempted++
		refused := err != nil && strings.Contains(err.Error(), "access denied")
		if err != nil && strings.Contains(err.Error(), "i/o timeout") {
			tally.ioErrors++
		}
		switch {
		case who == intruder && refused:
			// The policy did its job.
		case who == intruder && err == nil:
			tally.failed++
			o.problemf("intruder call succeeded with %d", v.I)
		case who == intruder:
			tally.failed++
		case err != nil:
			tally.failed++
			tally.lat = append(tally.lat, posInf)
		case v.I != min(arg, limitFor(1)):
			tally.failed++
			tally.lat = append(tally.lat, posInf)
			o.problemf("move(%d) returned %d, want %d", arg, v.I, min(arg, limitFor(1)))
		default:
			tally.lat = append(tally.lat, took)
		}
	}
	tally.took = time.Since(start)
	tally.gob = reg.CounterValue("transport.gob_bodies")
	tally.bodies = tally.gob + reg.CounterValue("transport.wire_bodies")
	return tally
}
