package transport

import (
	"context"
	"sync"
	"time"

	"repro/internal/metrics"
)

// This file is the RED auto-instrumentation layer: wrap a Caller or Handler
// once and every RPC that flows through it gets per-method Rate (histogram
// count), Error (counter) and Duration (latency histogram with p50/p95/p99
// in snapshots) instruments — no per-call-site code. Instrument names carry
// the method as a label suffix ("rpc.client.ns|method=midas.renewBatch") which
// /metrics?format=prom renders as a proper Prometheus label, and which the
// fleet-aggregation path in internal/core parses back out per method.

// RED instrument-name prefixes, shared with the fleet aggregation parser.
const (
	REDClientPrefix = "rpc.client"
	REDServerPrefix = "rpc.server"
)

// REDSuffix builds the per-method instrument name for a RED prefix, e.g.
// REDSuffix("rpc.server", "ns", "midas.renewBatch").
func REDSuffix(prefix, kind, method string) string {
	return prefix + "." + kind + "|method=" + method
}

// redMethod is one method's instrument pair, resolved once and cached.
type redMethod struct {
	ns   *metrics.Histogram
	errs *metrics.Counter
}

// redSet caches per-method instruments behind a read lock so steady-state
// calls never rebuild instrument names or hit the registry's maps.
type redSet struct {
	reg    *metrics.Registry
	prefix string

	mu      sync.RWMutex
	methods map[string]*redMethod
}

func newRedSet(reg *metrics.Registry, prefix string) *redSet {
	return &redSet{reg: reg, prefix: prefix, methods: make(map[string]*redMethod)}
}

func (rs *redSet) get(method string) *redMethod {
	rs.mu.RLock()
	m, ok := rs.methods[method]
	rs.mu.RUnlock()
	if ok {
		return m
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if m, ok := rs.methods[method]; ok {
		return m
	}
	m = &redMethod{
		ns:   rs.reg.Histogram(REDSuffix(rs.prefix, "ns", method), nil),
		errs: rs.reg.Counter(REDSuffix(rs.prefix, "errors", method)),
	}
	rs.methods[method] = m
	return m
}

// observe records one completed RPC.
func (rs *redSet) observe(method string, d time.Duration, err error) {
	m := rs.get(method)
	m.ns.Observe(int64(d))
	if err != nil {
		m.errs.Inc()
	}
}

// redCaller wraps a Caller with client-side RED instruments.
type redCaller struct {
	inner Caller
	set   *redSet
}

// REDCalls instruments every call through c with per-method rate/error/
// duration metrics under "rpc.client.*|method=...". A nil registry returns c
// unwrapped: observability stays strictly opt-in on the hot path.
func REDCalls(c Caller, reg *metrics.Registry) Caller {
	if reg == nil {
		return c
	}
	return &redCaller{inner: c, set: newRedSet(reg, REDClientPrefix)}
}

func (r *redCaller) Call(ctx context.Context, to, method string, req, resp any) error {
	t0 := time.Now() //lint:allow clockcheck (RPC latency measurement, not scheduling)
	err := r.inner.Call(ctx, to, method, req, resp)
	r.set.observe(method, time.Since(t0), err) //lint:allow clockcheck (RPC latency measurement, not scheduling)
	return err
}

// redHandler wraps a Handler with server-side RED instruments.
type redHandler struct {
	inner Handler
	set   *redSet
}

// REDHandling instruments every request served through h with per-method
// rate/error/duration metrics under "rpc.server.*|method=...". A nil registry
// returns h unwrapped.
func REDHandling(h Handler, reg *metrics.Registry) Handler {
	if reg == nil {
		return h
	}
	return &redHandler{inner: h, set: newRedSet(reg, REDServerPrefix)}
}

func (r *redHandler) Handle(ctx context.Context, method string, body []byte) ([]byte, error) {
	t0 := time.Now() //lint:allow clockcheck (RPC latency measurement, not scheduling)
	out, err := r.inner.Handle(ctx, method, body)
	r.set.observe(method, time.Since(t0), err) //lint:allow clockcheck (RPC latency measurement, not scheduling)
	return out, err
}
