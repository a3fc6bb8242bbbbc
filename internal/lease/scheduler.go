package lease

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// BatchItem names one lease due for renewal in a batched renew call.
type BatchItem struct {
	ID ID
}

// BatchResult reports one lease's renewal outcome. A zero Granted on success
// means the renewer keeps its previous duration.
type BatchResult struct {
	ID      ID
	Granted time.Duration
	Err     error
}

// BatchRenewFunc renews all items held at one node in a single exchange. A
// call-level error fails every item (the node was unreachable); otherwise the
// per-item results decide.
type BatchRenewFunc func(node string, items []BatchItem) ([]BatchResult, error)

// wheelSlots is the size of the scheduler's timer wheel.
const wheelSlots = 512

// renewFraction is the share of the lease window the Scheduler waits before
// renewing, leaving the other half as slack for the renewal round trip and
// its retries.
const renewFraction = 0.5

// SchedulerConfig assembles a renewal Scheduler. A renewal fires at half the
// lease window (renewFraction).
type SchedulerConfig struct {
	// Tick is the timer-wheel granularity (default 10ms).
	Tick time.Duration
	// Retries is how many in-lease retries follow a failed renewal, spaced
	// evenly across the half of the window left before expiry.
	Retries int
	// MaxBatch caps how many leases ride in one batched renew call (default
	// 64); Workers how many renew calls may be in flight at once (default 1,
	// which keeps traffic ordering deterministic for traced scenarios).
	MaxBatch int
	Workers  int
	// Renew performs the batched renewal; OnRenew observes each success (for
	// journaling); OnNodeFail fires once per node per terminal failure — the
	// base's departure path. Both callbacks run off the scheduler's locks.
	Renew      BatchRenewFunc
	OnRenew    func(node string, id ID, granted time.Duration)
	OnNodeFail func(node string, err error)
}

// Scheduler keeps every lease a base holds alive using one hashed timer
// wheel and a small worker pool, instead of one goroutine per lease. All of
// a node's leases that come due in the same wheel advance coalesce into one
// batched renew call (chunked at MaxBatch). A failed renewal gets Retries
// more attempts spaced slack/(retries+1) apart, then the node is reported
// failed.
type Scheduler struct {
	cfg   SchedulerConfig
	wheel *clock.Wheel

	mu      sync.Mutex
	entries map[entryKey]*schedEntry
	byNode  map[string]map[ID]*schedEntry
	due     []*schedEntry // came due since the last flush, in wheel order
	queue   []renewJob
	qcond   *sync.Cond
	pending int // queued + in-flight jobs, for Quiesced
	stopped bool

	wg sync.WaitGroup

	m         schedulerMetrics
	scheduled *metrics.Gauge
}

// schedulerMetrics counts holder-side renewal traffic; nil-safe until
// Instrument. The lookup keepalives in internal/core count into the same
// lease.renews_sent and lease.renew_failures names.
type schedulerMetrics struct {
	renews   *metrics.Counter
	retries  *metrics.Counter
	failures *metrics.Counter
}

type entryKey struct {
	node string
	id   ID
}

type schedEntry struct {
	key      entryKey
	granted  time.Duration // current lease window; retry slack derives from it
	attempts int           // retries consumed for the renewal in progress
	timer    *clock.WheelTimer
}

type renewJob struct {
	node    string
	entries []*schedEntry
}

// NewScheduler starts a scheduler on clk (nil means the real clock).
func NewScheduler(clk clock.Clock, cfg SchedulerConfig) *Scheduler {
	if clk == nil {
		clk = clock.Real{}
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 10 * time.Millisecond
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	s := &Scheduler{
		cfg:     cfg,
		entries: make(map[entryKey]*schedEntry),
		byNode:  make(map[string]map[ID]*schedEntry),
	}
	s.qcond = sync.NewCond(&s.mu)
	s.wheel = clock.NewWheel(clk, cfg.Tick, wheelSlots)
	s.wheel.OnFlush(s.flush)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Instrument records renewals sent, in-lease retries, terminal failures and
// the scheduled-lease gauge. Nil-safe; call before traffic for exact counts.
func (s *Scheduler) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = schedulerMetrics{
		renews:   reg.Counter("lease.renews_sent"),
		retries:  reg.Counter("lease.renew_retries"),
		failures: reg.Counter("lease.renew_failures"),
	}
	s.scheduled = reg.Gauge("lease.scheduled")
	s.scheduled.Set(int64(len(s.entries)))
}

// Add tracks one lease held at node. The first renewal fires at half the
// window from now (the full lease duration on a fresh grant, the
// remaining window on recovery); a non-positive window renews on the next
// tick. Re-adding an existing (node, id) pair resets its schedule.
func (s *Scheduler) Add(node string, id ID, window time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	key := entryKey{node: node, id: id}
	if old, ok := s.entries[key]; ok {
		old.timer.Cancel()
		s.removeLocked(old)
	}
	if window <= 0 {
		window = time.Millisecond
	}
	e := &schedEntry{key: key, granted: window}
	s.entries[key] = e
	if s.byNode[node] == nil {
		s.byNode[node] = make(map[ID]*schedEntry)
	}
	s.byNode[node][id] = e
	s.armLocked(e, time.Duration(float64(window)*renewFraction))
	s.gaugeLocked()
}

// Cancel stops renewing one lease. Safe for untracked pairs.
func (s *Scheduler) Cancel(node string, id ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[entryKey{node: node, id: id}]; ok {
		e.timer.Cancel()
		s.removeLocked(e)
		s.gaugeLocked()
	}
}

// CancelNode stops renewing every lease held at node (departure, release).
func (s *Scheduler) CancelNode(node string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.byNode[node] {
		e.timer.Cancel()
		delete(s.entries, e.key)
	}
	delete(s.byNode, node)
	s.gaugeLocked()
}

// Len reports how many leases are being kept alive.
func (s *Scheduler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Backlog reports the renewal work outstanding right now: leases that came
// due but are not yet queued, plus queued and in-flight batch jobs. A healthy
// scheduler hovers near zero; a sustained backlog means the worker pool is
// not keeping up with the fleet's renewal rate.
func (s *Scheduler) Backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.due) + s.pending
}

// Quiesced reports whether every tick the clock has passed was fully
// processed and no renewal work is queued or in flight, so a deterministic
// test can advance the clock tick by tick: advance, wait for Quiesced,
// advance again.
func (s *Scheduler) Quiesced() bool {
	if !s.wheel.Synced() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.due) == 0 && s.pending == 0
}

// Stop halts the wheel and the workers. Armed renewals never fire again;
// queued-but-unstarted work is dropped; an in-flight renew call is waited
// for, so no renewal outlives Stop.
func (s *Scheduler) Stop() {
	s.wheel.Stop()
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.pending -= len(s.queue)
	s.queue = nil
	s.qcond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Scheduler) removeLocked(e *schedEntry) {
	delete(s.entries, e.key)
	if m := s.byNode[e.key.node]; m != nil {
		delete(m, e.key.id)
		if len(m) == 0 {
			delete(s.byNode, e.key.node)
		}
	}
}

func (s *Scheduler) armLocked(e *schedEntry, d time.Duration) {
	e.timer = s.wheel.Schedule(d, func() {
		s.mu.Lock()
		if s.entries[e.key] == e { // not cancelled since firing
			s.due = append(s.due, e)
		}
		s.mu.Unlock()
	})
}

func (s *Scheduler) gaugeLocked() {
	if s.scheduled != nil {
		s.scheduled.Set(int64(len(s.entries)))
	}
}

// flush runs on the wheel goroutine after each advance that fired timers: it
// groups everything that came due by node — the coalescing step — and hands
// the worker pool one job per node per MaxBatch chunk.
func (s *Scheduler) flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.due) == 0 {
		return
	}
	perNode := make(map[string][]*schedEntry)
	var nodes []string
	for _, e := range s.due {
		if s.entries[e.key] != e {
			continue // cancelled between firing and flush
		}
		if _, ok := perNode[e.key.node]; !ok {
			nodes = append(nodes, e.key.node)
		}
		perNode[e.key.node] = append(perNode[e.key.node], e)
	}
	s.due = s.due[:0]
	sort.Strings(nodes) // deterministic dispatch order
	for _, node := range nodes {
		es := perNode[node]
		for len(es) > 0 {
			n := min(len(es), s.cfg.MaxBatch)
			s.queue = append(s.queue, renewJob{node: node, entries: es[:n]})
			s.pending++
			es = es[n:]
		}
	}
	s.qcond.Broadcast()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopped {
			s.qcond.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		job := s.queue[0]
		s.queue = s.queue[1:]
		// Drop entries cancelled while queued; the batch carries only leases
		// still tracked at dispatch time.
		live := make([]*schedEntry, 0, len(job.entries))
		items := make([]BatchItem, 0, len(job.entries))
		for _, e := range job.entries {
			if s.entries[e.key] == e {
				live = append(live, e)
				items = append(items, BatchItem{ID: e.key.id})
			}
		}
		s.mu.Unlock()

		var results []BatchResult
		var callErr error
		if len(items) > 0 {
			results, callErr = s.cfg.Renew(job.node, items)
		}
		s.settle(job.node, live, results, callErr)

		s.mu.Lock()
		s.pending--
		s.mu.Unlock()
	}
}

// settle applies one renew call's outcome: successes re-arm at half the
// granted window, failures retry across the slack, exhausted retries drop
// the lease and report the node failed (once per call).
func (s *Scheduler) settle(node string, live []*schedEntry, results []BatchResult, callErr error) {
	byID := make(map[ID]BatchResult, len(results))
	if callErr == nil {
		for _, r := range results {
			byID[r.ID] = r
		}
	}
	type renewed struct {
		id      ID
		granted time.Duration
	}
	var oks []renewed
	var failErr error
	s.mu.Lock()
	for _, e := range live {
		if s.entries[e.key] != e {
			continue // cancelled while the call was in flight
		}
		rerr := callErr
		if callErr == nil {
			r, ok := byID[e.key.id]
			switch {
			case !ok:
				rerr = fmt.Errorf("lease: batch renew of %s: no result for %s", node, e.key.id)
			default:
				rerr = r.Err
			}
			if rerr == nil {
				granted := r.Granted
				if granted <= 0 {
					granted = e.granted
				}
				e.granted = granted
				e.attempts = 0
				s.m.renews.Inc()
				s.armLocked(e, time.Duration(float64(granted)*renewFraction))
				oks = append(oks, renewed{id: e.key.id, granted: granted})
				continue
			}
		}
		if e.attempts < s.cfg.Retries {
			// Space the retries across the slack remaining before expiry.
			e.attempts++
			s.m.retries.Inc()
			slack := time.Duration(float64(e.granted) * (1 - renewFraction))
			gap := slack / time.Duration(s.cfg.Retries+1)
			if gap <= 0 {
				gap = time.Millisecond
			}
			s.armLocked(e, gap)
			continue
		}
		s.m.failures.Inc()
		s.removeLocked(e)
		if failErr == nil {
			failErr = rerr
		}
	}
	s.gaugeLocked()
	s.mu.Unlock()

	if s.cfg.OnRenew != nil {
		for _, ok := range oks {
			s.cfg.OnRenew(node, ok.id, ok.granted)
		}
	}
	if failErr != nil && s.cfg.OnNodeFail != nil {
		s.cfg.OnNodeFail(node, failErr)
	}
}
