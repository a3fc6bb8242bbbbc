// Command perfbench is the repository's benchmark. It drives real
// core.Base and core.Receiver instances, wired the way cmd/basestation and
// cmd/node wire them, through one of three workloads, checks that their
// outputs are correct, and prints the result as one JSON line:
//
//	go run . --workload arrival --seed 1 --seconds 10 --trace 0
//
// run from the repository root (perfbench/run.sh builds and runs it there).
// With --trace 0 the line carries the end-to-end metrics, measured with
// tracing off; with --trace 1 it carries the per-layer metrics of a traced
// run, whose spans are also written to .bench_build/. NOTES.md explains each
// metric and known failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the hall sees, reported by every
// workload for its own user-visible operation (see NOTES.md for what the
// operation is on each workload). Tail latency and throughput are on the
// "# e2e" line instead: on a shared host they follow the host's speed more
// than the program's (NOTES.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"heap_mb", "MB"},
}

// perLayer are the traced run's metrics. Every traced run reports all of
// them; a layer the workload does not exercise reads 0 and is listed on the
// run's "# layers" line.
var perLayer = []metricSpec{
	// Adaptation pipeline, on the blocking path of one arrival.
	{"registry.register_us", "us"},
	{"core.notify_lag_us", "us"},
	{"core.onservice_us", "us"},
	{"core.adapt_queue_us", "us"},
	{"core.apply_rpc_us", "us"},
	{"core.receiver_apply_us", "us"},
	{"svc.first_dispatch_us", "us"},
	{"core.unattributed_us", "us"},
	// Stage ledger: direct calls on the workload's own extensions.
	{"core.admit_us", "us"},
	{"sign.sign_us", "us"},
	{"sign.verify_us", "us"},
	{"analysis.analyze_us", "us"},
	{"jit.compile_us", "us"},
	{"weave.insert_us", "us"},
	{"weave.replace_us", "us"},
	{"weave.withdraw_us", "us"},
	{"wire.apply_encode_us", "us"},
	{"wire.apply_decode_us", "us"},
	{"weave.dispatch_us", "us"},
	{"wire.invoke_encode_us", "us"},
	{"wire.invoke_decode_us", "us"},
	// Arrival counts.
	{"arrival.allocs_per_adapt", "count"},
	{"arrival.bytes_per_adapt", "B"},
	{"arrival.rpcs_per_adapt", "count"},
	{"arrival.return_share", "ratio"},
	{"arrival.gen_late_ms", "ms"},
	{"arrival.rollout_ms", "ms"},
	// Renewal window.
	{"lease.fire_lag_ms", "ms"},
	{"lease.renew_rpc_us", "us"},
	{"core.receiver_renew_us", "us"},
	{"lease.inflight", "count"},
	{"lease.tail_ms", "ms"},
	{"lease.rpcs_per_window", "count"},
	{"lease.leases_per_rpc", "count"},
	{"renewal.allocs_per_lease", "count"},
	{"renewal.bytes_per_lease", "B"},
	// Adapted remote call.
	{"svc.handle_us", "us"},
	{"transport.net_us", "us"},
	{"transport.unattributed_us", "us"},
	{"transport.gob_share", "ratio"},
	{"transport.io_errors", "count"},
	{"remote-call.allocs_per_call", "count"},
	{"remote-call.bytes_per_call", "B"},
	// Every workload.
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead", "ratio"},
}

// env is what every workload gets: its inputs derive from seed alone.
type env struct {
	seed    int64
	seconds time.Duration
	adv     advice
	out     string // directory for span dumps
}

func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + stream))
}

// trial is one set-up instance of a workload.
type trial interface {
	run(e *env) *outcome
	close()
}

type workload struct {
	setup func(e *env, rec *recorder) (trial, error)
}

var workloads = map[string]workload{
	"arrival":     {setupArrival},
	"renewal":     {setupRenewal},
	"remote-call": {setupRemoteCall},
}

// outcome is what one timed run of a trial produced.
type outcome struct {
	attempted, failed int64
	problems          []string           // wrong outputs; any fails the run
	lat               sample             // the user-visible operation, ms; failures are +Inf
	p50, tail, tailQ  float64            // of lat, set by settle
	n                 int                // len(lat), set by settle
	opsPerS           float64            // completed operations per second
	cpuMS             float64            // process CPU time of the timed phase, ms
	named             map[string]float64 // workload-specific figures for the "# e2e" line
	layers            map[string]float64 // per-layer metrics this pass measured
	heapMB, sysMB     float64
	gcPauseMS         float64
	gcCycles          float64
}

func (o *outcome) problemf(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// memWindow brackets a timed phase with runtime statistics.
type memWindow struct{ before runtime.MemStats }

func startMem() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// stop returns allocations, allocated bytes, GC pause (ms) and GC cycles
// since start.
func (w *memWindow) stop() (mallocs, bytes, pauseMS, cycles float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - w.before.Mallocs), float64(after.TotalAlloc - w.before.TotalAlloc),
		float64(after.PauseTotalNs-w.before.PauseTotalNs) / 1e6, float64(after.NumGC - w.before.NumGC)
}

// settle summarises the latency sample and drops it, then measures the
// memory the process holds, so that the figure is the hall's and not the
// benchmark's own bookkeeping: heapMB is the heap still reachable after a
// forced collection (connections closed a moment ago get time to wind
// down), sysMB all memory the Go runtime has obtained from the OS.
func (o *outcome) settle() {
	o.p50 = o.lat.median()
	o.tail, o.tailQ = o.lat.tail()
	o.n = len(o.lat)
	o.lat = nil
	runtime.GC()
	time.Sleep(20 * time.Millisecond) //lint:allow clockcheck (the benchmark paces and polls in real time)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	o.heapMB, o.sysMB = float64(m.HeapAlloc)/(1<<20), float64(m.Sys)/(1<<20)
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(RUSAGE_SELF): %v", err)) // fails only on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		name    = flag.String("workload", "", "arrival | renewal | remote-call")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "length of the timed phase")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics of a traced run")
		root    = flag.String("root", ".", "repository root (examples/advice is read from it)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	adv, err := loadAdvice(*root)
	if err != nil {
		return 1, err
	}
	out := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 1, err
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, adv: adv, out: out}
	fmt.Printf("# env workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d go=%s\n",
		*name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.Version())

	var res result
	if *traced == 0 {
		res, err = runUntraced(e, w)
	} else {
		res, err = runTraced(e, w, *name)
	}
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	// A run whose outputs were wrong still exits 0: the result line says
	// correct=false, which is the verdict.
	fmt.Println(string(line))
	return 0, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timedSetup runs one set-up and reports how long it took.
func timedSetup(e *env, w workload, rec *recorder) (trial, float64, error) {
	start := time.Now() //lint:allow clockcheck (the benchmark measures wall-clock time)
	t, err := w.setup(e, rec)
	return t, time.Since(start).Seconds(), err
}

// Set-up repeats: at least minSetups, more for a quick set-up until they
// add up to setupBudget, at most maxSetups. setup_s is their median. Each
// starts from a collected heap, so that it does not pay for collecting the
// garbage of the one before.
const (
	minSetups   = 5
	maxSetups   = 100
	setupBudget = 2 * time.Second
)

// runUntraced sets the workload up several times, runs the last set-up's
// timed phase and reports the end-to-end metrics.
func runUntraced(e *env, w workload) (result, error) {
	var took sample
	var t trial
	var spent float64
	for len(took) < minSetups || (spent < setupBudget.Seconds() && len(took) < maxSetups) {
		if t != nil {
			t.close()
		}
		var s float64
		var err error
		runtime.GC()
		if t, s, err = timedSetup(e, w, nil); err != nil {
			return result{}, err
		}
		took = append(took, s)
		spent += s
	}
	cpu0 := cpuTime()
	o := t.run(e)
	o.cpuMS = float64(cpuTime()-cpu0) / 1e6
	t.close()
	o.named["setup_s"] = took.median()
	o.named["setups"] = float64(len(took))
	o.named["heap_mb"] = o.heapMB
	o.named["sys_mb"] = o.sysMB

	printProblems(o)
	fmt.Printf("# e2e %s tail=p%g n=%d attempted=%d failed=%d error_rate=%.6g\n",
		formatNamed(o.named), o.tailQ*100, o.n, o.attempted, o.failed, errorRate(o))
	vals := map[string]float64{
		"setup_s":       took.median(),
		"p50_ms":        o.p50,
		"cpu_ms_per_op": o.cpuMS / float64(max(o.attempted, 1)),
		"heap_mb":       o.heapMB,
	}
	return makeResult(o, endToEnd, vals), nil
}

// runTraced runs the workload twice on fresh set-ups: untraced, then with
// the program tracer on and the benchmark's timing wrappers in place. Span
// measurements come from the traced pass; allocation and GC counts from
// the untraced one, which tracing would inflate.
func runTraced(e *env, w workload, name string) (result, error) {
	t, _, err := timedSetup(e, w, nil)
	if err != nil {
		return result{}, err
	}
	plain := t.run(e)
	t.close()

	rec := newRecorder()
	if t, _, err = timedSetup(e, w, rec); err != nil {
		return result{}, err
	}
	traced := t.run(e)
	t.close()
	path := filepath.Join(e.out, "spans-"+name+".jsonl.gz")
	if err := rec.write(path); err != nil {
		return result{}, err
	}

	vals := map[string]float64{}
	for k, v := range traced.layers {
		vals[k] = v
	}
	for k, v := range plain.layers { // counts from the untraced pass win
		vals[k] = v
	}
	vals["runtime.gc_pause_ms"] = plain.gcPauseMS
	vals["runtime.gc_cycles"] = plain.gcCycles
	vals["trace.overhead"] = traced.p50 / plain.p50

	var idle []string
	for _, m := range perLayer {
		if _, ok := vals[m.name]; !ok {
			idle = append(idle, m.name)
		}
	}
	printProblems(plain)
	printProblems(traced)
	fmt.Printf("# layers spans=%s not-exercised=%s\n", path, strings.Join(idle, ","))
	o := &outcome{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		problems:  append(plain.problems, traced.problems...),
	}
	return makeResult(o, perLayer, vals), nil
}

func makeResult(o *outcome, specs []metricSpec, vals map[string]float64) result {
	res := result{
		Correct:   len(o.problems) == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, m := range specs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no NaN or Inf; a metric that could not be measured
			// (every sample failed) makes the run incorrect instead.
			res.Correct = false
			fmt.Printf("# unmeasurable %s=%v\n", m.name, v)
			v = 0
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res
}

func errorRate(o *outcome) float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

func formatNamed(named map[string]float64) string {
	keys := make([]string, 0, len(named))
	for k := range named {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.6g", k, named[k])
	}
	return b.String()
}

func printProblems(o *outcome) {
	for _, p := range o.problems {
		fmt.Printf("# wrong: %s\n", p)
	}
}
