package main

import (
	"math"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/svc"
)

// Span names the wrappers record.
const (
	spanRegister      = "call " + registry.MethodRegister
	spanOnService     = "serve " + core.MethodBaseOnService
	spanApplyCall     = "call " + core.MethodApplyBatch
	spanApplyServe    = "serve " + core.MethodApplyBatch
	spanFirstDispatch = "svc.first_dispatch"
	spanRenewCall     = "call " + core.MethodRenewBatch
	spanRenewServe    = "serve " + core.MethodRenewBatch
	spanInvokeCall    = "call " + svc.MethodInvoke
	spanInvokeServe   = "serve " + svc.MethodInvoke
)

// byTrace groups spans by the program trace they ran under, keeping the
// first span of each name.
func byTrace(spans []span) map[string]map[string]span {
	out := make(map[string]map[string]span)
	for _, s := range spans {
		if s.Trace == "" {
			continue
		}
		m := out[s.Trace]
		if m == nil {
			m = make(map[string]span)
			out[s.Trace] = m
		}
		if _, dup := m[s.Name]; !dup {
			m[s.Name] = s
		}
	}
	return out
}

// pipelineLayers splits each adapted arrival's latency into the stages on
// its blocking path, from the times the spans of its trace record:
//
//	due → generator start → register returned → base.onservice served →
//	base.onservice returned → applyBatch sent → applyBatch served →
//	applyBatch returned → first dispatch returned
//
// A stage that overlaps its predecessor (the watch notification can reach
// the base before the node's registration call has returned) counts as 0
// and the chain continues from the later instant, so per arrival the stages
// add up to the latency exactly. Each stage is reported as its median;
// core.unattributed_us is what the medians leave of the median latency.
func pipelineLayers(rec *recorder, marks []arrivalMark, layers map[string]float64) {
	traces := byTrace(rec.snapshot())
	// The first stage, the generator's lateness, has its own metric
	// (arrival.gen_late_ms) but still takes its share of the latency.
	stages := []string{
		"", "registry.register_us", "core.notify_lag_us", "core.onservice_us",
		"core.adapt_queue_us", "core.apply_rpc_us", "core.receiver_apply_us", "svc.first_dispatch_us",
	}
	vals := make([]sample, len(stages))
	var total sample
	for _, m := range marks {
		if !m.ok() {
			continue
		}
		sp := traces[m.res.trace]
		var reg, ons, ac, as, fd span
		var ok bool
		if reg, ok = sp[spanRegister]; !ok {
			continue
		}
		if ons, ok = sp[spanOnService]; !ok {
			continue
		}
		if ac, ok = sp[spanApplyCall]; !ok {
			continue
		}
		if as, ok = sp[spanApplyServe]; !ok {
			continue
		}
		if fd, ok = sp[spanFirstDispatch]; !ok {
			continue
		}
		events := []int64{rec.at(m.due), rec.at(m.start), reg.End, ons.Start, ons.End, ac.Start, as.Start, as.End, fd.End}
		for i := 1; i < len(events); i++ {
			events[i] = max(events[i], events[i-1])
			vals[i-1] = append(vals[i-1], float64(events[i]-events[i-1])/1e3)
		}
		total = append(total, float64(events[len(events)-1]-events[0])/1e3)
	}
	if len(total) == 0 {
		return
	}
	rest := total.median()
	for i, name := range stages {
		med := vals[i].median()
		rest -= med
		if name != "" {
			layers[name] = med
		}
	}
	layers["core.unattributed_us"] = nanos(rest)
}

// nanos rounds a time in microseconds to whole nanoseconds, the spans'
// resolution, so that float residue of a subtraction does not read as time.
func nanos(us float64) float64 { return math.Round(us*1e3) / 1e3 }

// renewalLayers reads the renewal windows from the base's renewBatch call
// spans and the nodes' renewBatch serve spans.
func renewalLayers(rec *recorder, windows []windowMark, leases int, layers map[string]float64) {
	var fireLag, tail, inflight, rpcDur, serveDur sample
	calls := 0
	spans := rec.snapshot()
	w := 0
	type agg struct {
		first, last int64
		busy        int64
		n           int
	}
	per := make([]agg, len(windows))
	for _, s := range spans {
		switch s.Name {
		case spanRenewServe:
			serveDur = append(serveDur, float64(s.dur())/1e3)
		case spanRenewCall:
			rpcDur = append(rpcDur, float64(s.dur())/1e3)
			for w < len(windows) && s.Start > windows[w].end {
				w++
			}
			if w == len(windows) || s.Start < windows[w].start {
				continue
			}
			a := &per[w]
			if a.n == 0 || s.Start < a.first {
				a.first = s.Start
			}
			a.last = max(a.last, s.End)
			a.busy += s.dur()
			a.n++
			calls++
		}
	}
	for i, a := range per {
		if a.n == 0 {
			continue
		}
		win := windows[i]
		fireLag = append(fireLag, float64(a.first-win.start)/1e6)
		tail = append(tail, float64(win.end-min(a.last, win.end))/1e6)
		inflight = append(inflight, float64(a.busy)/float64(win.end-win.start))
	}
	if calls == 0 {
		return
	}
	layers["lease.fire_lag_ms"] = fireLag.median()
	layers["lease.renew_rpc_us"] = rpcDur.median()
	layers["core.receiver_renew_us"] = serveDur.median()
	layers["lease.inflight"] = inflight.median()
	layers["lease.tail_ms"] = tail.median()
	layers["lease.rpcs_per_window"] = float64(calls) / float64(len(windows))
	layers["lease.leases_per_rpc"] = float64(leases*len(windows)) / float64(calls)
}

// callLayers splits each adapted call into the node's handling and the
// rest (client and server fabric, envelope, gob), pairing a client's call
// span with the node's serve span of the same trace: the serve span is the
// call span's child, so transport.net_us is the call span's self time.
func callLayers(rec *recorder, layers map[string]float64) {
	spans := rec.snapshot()
	serves := make(map[string]span)
	for _, s := range spans {
		if s.Name == spanInvokeServe && s.Trace != "" {
			serves[s.Trace] = s
		}
	}
	var linked []span
	var call, handle sample
	for _, s := range spans {
		if s.Name != spanInvokeCall || s.Err {
			continue
		}
		sv, ok := serves[s.Trace]
		if !ok {
			continue
		}
		sv.Parent = s.ID
		linked = append(linked, s, sv)
		call = append(call, float64(s.dur())/1e3)
		handle = append(handle, float64(sv.dur())/1e3)
	}
	var net sample
	self := selfTimes(linked)
	for _, s := range linked {
		if s.Name == spanInvokeCall {
			net = append(net, float64(self[s.ID])/1e3)
		}
	}
	if len(call) == 0 {
		return
	}
	layers["svc.handle_us"] = handle.median()
	layers["transport.net_us"] = net.median()
	layers["transport.unattributed_us"] = nanos(call.median() - handle.median() - net.median())
}
