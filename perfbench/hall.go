package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/lvm"
	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/weave"
)

// Deployment constants. The lease and overload values are cmd/basestation's
// defaults; the advertisement lease is long so that lookup re-registration
// traffic stays out of the renewal windows (the manual clock runs hours
// ahead during a renewal run).
const (
	hallName       = "hall-1"
	leaseDur       = 10 * time.Second
	advertiseLease = 24 * time.Hour
	adaptTimeout   = 5 * time.Second

	armService = "Arm"
	armMethod  = "move"
	probeArg   = 120 // above every movelimit version's bound, so it is clamped
	operator   = "operator"
	intruder   = "intruder"
)

// limitFor is the bound version v of the movelimit extension clamps to:
// version 1 is examples/advice/movelimit.lasm as shipped (90), and each
// version bump lowers it by one, so a dispatch shows which version ran.
func limitFor(version int) int64 { return 90 - int64(version-1)%40 }

// advice holds the LVM sources from examples/advice the policies are built
// from, read from the checkout at start.
type advice struct{ audit, movelimit, announce string }

func loadAdvice(root string) (advice, error) {
	read := func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join(root, "examples", "advice", name))
		return string(b), err
	}
	var a advice
	var err error
	if a.audit, err = read("audit.lasm"); err != nil {
		return a, err
	}
	if a.movelimit, err = read("movelimit.lasm"); err != nil {
		return a, err
	}
	if a.announce, err = read("announce.lasm"); err != nil {
		return a, err
	}
	if !strings.Contains(a.movelimit, "push 90") {
		return a, fmt.Errorf("movelimit.lasm no longer clamps at 90")
	}
	return a, nil
}

func lvmExt(name, pattern, code string, version int, caps ...string) core.Extension {
	return core.Extension{
		ID: hallName + "/" + name, Name: name, Version: version, Caps: caps,
		Advices: []core.AdviceSpec{{Name: name, Kind: core.KindCallBefore, Pattern: pattern, Code: code}},
	}
}

// movelimitExt is version v of the movelimit extension.
func (a advice) movelimitExt(v int) core.Extension {
	code := strings.ReplaceAll(a.movelimit, "push 90", fmt.Sprintf("push %d", limitFor(v)))
	return lvmExt("movelimit", armService+".move(..)", code, v)
}

// adaptPolicy is the arrival and renewal policy set: one builtin (the
// cmd/basestation logger preset) and three LVM extensions.
func (a advice) adaptPolicy() []core.Extension {
	return []core.Extension{
		{
			ID: hallName + "/logger", Name: ext.BLogger, Version: 1, Caps: []string{"log"},
			Advices: []core.AdviceSpec{{Name: "log", Kind: core.KindCallBefore, Pattern: "*.*(..)", Builtin: ext.BLogger}},
		},
		lvmExt("audit", armService+".*(..)", a.audit, 1, "clock", "store"),
		a.movelimitExt(1),
		lvmExt("announce", armService+".*(..)", a.announce, 1),
	}
}

// callPolicy is the Fig. 2 stack of the remote-call workload: access
// control (which pulls in the implicit session extension) and logging, plus
// one LVM advice that clamps the argument.
func (a advice) callPolicy() []core.Extension {
	return []core.Extension{
		{
			ID: hallName + "/accesscontrol", Name: ext.BAccessControl, Version: 1,
			Requires: []string{ext.SessionBundleName}, Caps: []string{"session"},
			Advices: []core.AdviceSpec{{
				Name: "authorize", Kind: core.KindCallBefore, Pattern: "*.*(..)",
				Builtin: ext.BAccessControl, Config: map[string]string{"allow": operator},
			}},
		},
		{
			ID: hallName + "/logger", Name: ext.BLogger, Version: 1, Caps: []string{"log"},
			Advices: []core.AdviceSpec{{Name: "log", Kind: core.KindCallBefore, Pattern: "*.*(..)", Builtin: ext.BLogger}},
		},
		a.movelimitExt(1),
	}
}

// hallConfig selects how a hall is wired.
type hallConfig struct {
	seed   int64
	tcp    bool      // nodes also serve loopback TCP, for the operator's calls
	rec    *recorder // non-nil: traced run (program tracer on, timing wrappers)
	policy []core.Extension
}

// hall is one base station as cmd/basestation wires it (lookup service and
// base on one mux behind the overload front, metrics registry, breaker),
// plus the nodes that may walk into its area. Base, lookup and receivers
// share a manual clock the benchmark advances, so lease windows pass on
// demand; latencies are measured on the wall clock. The hall and its nodes
// talk over the in-process fabric; with cfg.tcp, nodes also serve loopback
// TCP for the operator. Set-up stays off TCP: there, back-to-back calls on
// a pooled connection hit the transport's stale-deadline failure (NOTES.md,
// finding 3): one of 2,600 set-ups failed that way.
type hall struct {
	cfg      hallConfig
	clk      *clock.Manual
	fabric   *transport.InProc
	tracer   *trace.Tracer
	signer   *sign.Signer
	builtins *core.Builtins
	base     *core.Base
	reg      *metrics.Registry
	addr     string
	caller   transport.Caller // the base's and the lookup's outbound caller
	closers  []func()

	rangeMu sync.RWMutex
	inRange map[string]bool // in-process nodes currently within reach
}

func (h *hall) setInRange(addr string, in bool) {
	h.rangeMu.Lock()
	h.inRange[addr] = in
	h.rangeMu.Unlock()
}

// linked is the in-process fabric's connectivity oracle: the hall reaches,
// and is reached by, the nodes within range.
func (h *hall) linked(from, to string) bool {
	h.rangeMu.RLock()
	defer h.rangeMu.RUnlock()
	return (from == h.addr || h.inRange[from]) && (to == h.addr || h.inRange[to])
}

func newHall(cfg hallConfig) (*hall, error) {
	h := &hall{
		cfg:      cfg,
		clk:      clock.NewManual(time.Unix(1_700_000_000, 0)),
		reg:      metrics.New(),
		builtins: core.NewBuiltins(),
		addr:     hallName,
		inRange:  map[string]bool{},
	}
	ext.RegisterAll(h.builtins)
	if cfg.rec != nil {
		h.tracer = trace.New(cfg.seed)
	}
	var err error
	if h.signer, err = sign.NewSigner(hallName); err != nil {
		return nil, err
	}

	mux := transport.NewMux()
	lim := overload.NewLimiter(overload.Config{
		InitialLimit: 16, MinLimit: 4, MaxLimit: 256, QueueDepth: 128,
		Target: 5 * time.Millisecond, Interval: 100 * time.Millisecond, RetryAfter: 250 * time.Millisecond,
	})
	lim.Instrument(h.reg)
	// The front runs without cmd/basestation's default per-peer token
	// buckets: every watch notification comes from the one lookup peer, so
	// above 50 arrivals/s the bucket on base.onservice sheds arrivals
	// (NOTES.md, finding 2).
	front := overload.Wrap(mux, lim, nil, h.tracer)
	handler := h.wrapHandler(transport.REDHandling(transport.TraceHandling(front, h.tracer, hallName), h.reg), hallName, nil)

	h.fabric = transport.NewInProc()
	h.fabric.Instrument(h.reg)
	h.fabric.SetLinkFunc(h.linked)
	stop, err := h.fabric.Serve(h.addr, handler)
	if err != nil {
		return nil, err
	}
	h.closers = append(h.closers, stop)
	caller := h.wrapCaller(h.fabric.Node(h.addr), hallName)
	h.caller = caller

	lookup := registry.NewLookup(h.clk)
	lookup.Instrument(h.reg)
	lookupSrv := registry.NewServer(hallName+"/lookup", lookup, mux, caller, h.clk)
	h.closers = append(h.closers, lookupSrv.Close)

	h.base, err = core.NewBase(core.BaseConfig{
		Name:   hallName,
		Addr:   h.addr,
		Caller: caller,
		Signer: h.signer,
		Store:  store.NewMemory(),
		Clock:  h.clk,
		// cmd/basestation defaults, except that periodic reconciliation is
		// off: its inventory sweeps would land in some renewal windows and
		// not others.
		LeaseDur:     leaseDur,
		Breaker:      transport.NewBreakerSet(cfg.seed, transport.BreakerConfig{Threshold: 3, Cooldown: 5 * time.Second}),
		Shards:       16,
		RenewBatch:   64,
		RenewWorkers: 8,
	})
	if err != nil {
		return nil, err
	}
	h.closers = append(h.closers, h.base.Close)
	h.base.Trace(h.tracer)
	h.base.Instrument(h.reg)
	h.base.ServeOn(mux)
	h.base.SetOverload(front.Snapshot)
	for _, e := range cfg.policy {
		if err := h.base.AddExtension(e); err != nil {
			return nil, err
		}
	}
	if _, err := h.base.WatchLookup(&registry.Client{Caller: caller, Addr: h.addr}, advertiseLease); err != nil {
		return nil, err
	}
	return h, nil
}

// close stops everything the hall started, newest first.
func (h *hall) close() {
	for i := len(h.closers) - 1; i >= 0; i-- {
		h.closers[i]()
	}
	h.closers = nil
}

// wrapCaller adds the benchmark's timing wrapper in a traced run.
func (h *hall) wrapCaller(c transport.Caller, node string) transport.Caller {
	if h.cfg.rec == nil {
		return c
	}
	return &timedCaller{inner: c, rec: h.cfg.rec, node: node}
}

// wrapClient wires the operator's caller: plain in a timed run; in a traced
// run its calls carry the program's trace context and get timing spans.
func (h *hall) wrapClient(c transport.Caller) transport.Caller {
	if h.cfg.rec == nil {
		return c
	}
	return transport.TraceCalls(h.wrapCaller(c, "operator"), h.tracer)
}

// wrapHandler adds the benchmark's timing wrapper in a traced run; after,
// when non-nil, runs once a request has been served.
func (h *hall) wrapHandler(inner transport.Handler, node string, after func(ctx context.Context, method string)) transport.Handler {
	if h.cfg.rec == nil && after == nil {
		return inner
	}
	return &timedHandler{inner: inner, rec: h.cfg.rec, node: node, after: after}
}

// dispatchResult is one node's first adapted dispatch.
type dispatchResult struct {
	end   time.Time // when the dispatch returned
	err   error
	wrong bool   // err is a wrong output, not a failed call
	trace string // program trace the triggering request ran under
}

// node is one mobile node as cmd/node wires it: its own weaver, service
// registry, trust store, KV store, sandboxed host, metrics registry and
// receiver with its lease grantor. Its only application service is
// Arm.move(int), which returns its argument.
type node struct {
	h        *hall
	name     string
	addr     string
	recv     *core.Receiver
	weaver   *weave.Weaver
	services *svc.Registry
	kv       *store.KV
	reg      *metrics.Registry
	caller   transport.Caller
	handler  transport.Handler
	tcpAddr  string // the node's loopback TCP address, with cfg.tcp

	mu        sync.Mutex
	want      []string // extensions whose weave completes the current wait
	wantLimit int64    // the clamp the dispatch must show
	done      chan dispatchResult
	stopServe func()
	stopAdv   func()
	entering  sync.WaitGroup // an arrive still advertising
}

func (h *hall) newNode(name string) (*node, error) {
	n := &node{h: h, name: name, addr: name, reg: metrics.New(), kv: store.NewKV(), done: make(chan dispatchResult, 1)}
	n.weaver = weave.New()
	n.services = svc.NewRegistry(n.weaver)
	n.services.Register(armService, armMethod, []string{"int"}, "int", func(args []lvm.Value) (lvm.Value, error) {
		return lvm.Int(args[0].I), nil
	})
	trust := sign.NewTrustStore()
	trust.Trust("base", h.signer.PublicKey())

	n.caller = transport.REDCalls(transport.TraceCalls(h.wrapCaller(h.fabric.Node(name), name), h.tracer), n.reg)
	host := ext.NewNodeHost(ext.NodeHostConfig{Caller: n.caller, KV: n.kv, Clock: clock.Real{}})

	mux := transport.NewMux()
	n.services.ServeOn(mux)
	n.handler = h.wrapHandler(transport.REDHandling(transport.TraceHandling(mux, h.tracer, name), n.reg), name, n.served)
	stop, err := h.fabric.Serve(n.addr, n.handler)
	if err != nil {
		return nil, err
	}
	n.stopServe = stop
	if h.cfg.tcp {
		srv, err := transport.ServeTCP("127.0.0.1:0", n.handler)
		if err != nil {
			stop()
			return nil, err
		}
		srv.Instrument(n.reg)
		n.tcpAddr = srv.Addr()
		n.stopServe = func() { srv.Close(); stop() }
	}
	n.recv, err = core.NewReceiver(core.ReceiverConfig{
		NodeName: name,
		Addr:     n.addr,
		Weaver:   n.weaver,
		Trust:    trust,
		Policy:   sandbox.AllowAll(),
		// cmd/node leaves the receiver on the real clock; here it shares the
		// hall's manual clock so leases lapse when the benchmark says so.
		Clock:    h.clk,
		Host:     host,
		Builtins: h.builtins,
	})
	if err != nil {
		return nil, err
	}
	n.weaver.Instrument(n.reg)
	n.recv.Instrument(n.reg)
	n.recv.Trace(h.tracer)
	n.recv.ServeOn(mux)
	n.recv.Grantor().Start(time.Second)
	return n, nil
}

// arm makes the next served install that leaves every extension in names
// woven trigger one dispatch, which must come back clamped to limit.
func (n *node) arm(names []string, limit int64) {
	if n.h.hasAudit() {
		_ = n.kv.Delete("audit")
	}
	n.mu.Lock()
	n.want, n.wantLimit = names, limit
	n.mu.Unlock()
}

// served runs after every request the node handles: an install that
// completes an armed wait is followed, before the response leaves, by the
// node's first dispatch through the woven advice.
func (n *node) served(ctx context.Context, method string) {
	if method != core.MethodApplyBatch && method != core.MethodInstall {
		return
	}
	n.mu.Lock()
	want := n.want
	n.mu.Unlock()
	if want == nil {
		return
	}
	for _, name := range want {
		if !n.weaver.Has(name) {
			return
		}
	}
	n.mu.Lock()
	if n.want == nil { // a concurrent install claimed it
		n.mu.Unlock()
		return
	}
	n.want = nil
	limit := n.wantLimit
	n.mu.Unlock()

	sc, _ := trace.FromContext(ctx)
	start := time.Now() //lint:allow clockcheck (the benchmark measures wall-clock time)
	v, err := n.services.Invoke(armService, armMethod, operator, []lvm.Value{lvm.Int(probeArg)})
	end := time.Now() //lint:allow clockcheck (the benchmark measures wall-clock time)
	if rec := n.h.cfg.rec; rec != nil {
		rec.add(span{Name: spanFirstDispatch, Node: n.name, Trace: sc.TraceID, Start: rec.at(start), End: rec.at(end)})
	}
	wrong := false
	if err == nil && v.I != limit {
		err, wrong = fmt.Errorf("%s: dispatch returned %d, want the clamp %d", n.name, v.I, limit), true
	}
	if err == nil && n.h.hasAudit() {
		if rec, ok := n.kv.Get("audit"); !ok || !strings.Contains(string(rec), armMethod) {
			err, wrong = fmt.Errorf("%s: no audit record after dispatch (have %q)", n.name, rec), true
		}
	}
	n.done <- dispatchResult{end: end, err: err, wrong: wrong, trace: sc.TraceID}
}

func (h *hall) policyNames() []string {
	names := make([]string, len(h.cfg.policy))
	for i, e := range h.cfg.policy {
		names[i] = e.Name
	}
	return names
}

func (h *hall) hasAudit() bool {
	for _, e := range h.cfg.policy {
		if e.Name == "audit" {
			return true
		}
	}
	return false
}

// enter brings the node into the hall's radio range and advertises its
// adaptation service at the lookup, as cmd/node does on start.
func (n *node) enter() error {
	n.h.setInRange(n.addr, true)
	stopAdv, err := n.recv.Advertise(&registry.Client{Caller: n.caller, Addr: n.h.addr}, advertiseLease, map[string]string{"kind": "arm"})
	if err != nil {
		return err
	}
	n.stopAdv = stopAdv
	return nil
}

// leave takes the node out of radio range: from then on it can neither
// reach the hall nor be reached, so the base's next renewal fails and the
// node's leases lapse. Its advertiser stops; the deregistration it attempts
// cannot get through, so the lookup keeps the registration, as it would for
// a node that walked away.
func (n *node) leave() {
	n.entering.Wait()
	n.h.setInRange(n.addr, false)
	if n.stopAdv != nil {
		n.stopAdv()
		n.stopAdv = nil
	}
}

// close releases everything the node started.
func (n *node) close() {
	n.leave()
	if n.stopAdv != nil {
		n.stopAdv()
	}
	if n.stopServe != nil {
		n.stopServe()
	}
	n.recv.Grantor().Stop()
}

// versions reports the installed version of each non-system extension.
func (n *node) versions() map[string]int {
	out := make(map[string]int)
	for _, i := range n.recv.Installed() {
		if !i.System {
			out[i.Name] = i.Version
		}
	}
	return out
}
