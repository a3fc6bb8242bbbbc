package main

import (
	"errors"
	"fmt"
	"time"
)

// errAdaptTimeout marks an arrival whose first adapted dispatch never came.
var errAdaptTimeout = errors.New("no adapted dispatch within the timeout")

// arrivalMark is one node's way into the hall: when it was due, when the
// generator let it go, and how its first adapted dispatch went.
type arrivalMark struct {
	node  *node
	due   time.Time
	start time.Time
	res   dispatchResult
}

func (m arrivalMark) ok() bool { return m.res.err == nil }

// forget drops the marks' references to their nodes, so that nodes retired
// from the run can be collected while their marks are kept for the tally.
func forget(marks []arrivalMark) {
	for i := range marks {
		marks[i].node = nil
	}
}

// latencyMS is due-to-dispatched in milliseconds; +Inf when it failed.
func (m arrivalMark) latencyMS() float64 {
	if !m.ok() {
		return posInf
	}
	return float64(m.res.end.Sub(m.due)) / 1e6
}

// fail delivers an arrival that could not even start (its advertisement
// failed) as the node's result, unless a dispatch already claimed it.
func (n *node) fail(err error) {
	n.mu.Lock()
	armed := n.want != nil
	n.want = nil
	n.mu.Unlock()
	if armed {
		n.done <- dispatchResult{err: err}
	}
}

// disarm abandons an outstanding wait and drops any result that raced it.
func (n *node) disarm() {
	n.mu.Lock()
	n.want = nil
	n.mu.Unlock()
	select {
	case <-n.done:
	default:
	}
}

// arrive lets n into the hall in its own goroutine, as an independent node
// would: the caller does not wait for the advertisement (leave does).
func arrive(n *node) {
	n.entering.Add(1)
	go func() {
		defer n.entering.Done()
		if err := n.enter(); err != nil {
			n.fail(err)
		}
	}()
}

// collect waits for each mark's node to report its armed dispatch, giving
// up on the whole set at giveUp. Nodes still waiting then are disarmed and
// reported with errAdaptTimeout.
func collect(marks []arrivalMark, giveUp time.Time) {
	timer := time.NewTimer(time.Until(giveUp)) //lint:allow clockcheck (the adaptation timeout runs in real time)
	defer timer.Stop()
	expired := false
	for i := range marks {
		n := marks[i].node
		if !expired {
			select {
			case marks[i].res = <-n.done:
				continue
			case <-timer.C:
				expired = true
			}
		}
		select {
		case marks[i].res = <-n.done:
		default:
			n.disarm()
			marks[i].res = dispatchResult{err: errAdaptTimeout}
		}
	}
}

// account adds marks to the outcome: every mark is an attempted operation,
// a failed one counts as failed, and a dispatch that showed the wrong
// advice is a wrong output.
func account(o *outcome, marks []arrivalMark) {
	for _, m := range marks {
		o.attempted++
		if m.ok() {
			continue
		}
		o.failed++
		if m.res.wrong {
			o.problemf("%v", m.res.err)
		}
	}
}

// admission is how a set of nodes got into the hall.
type admission struct {
	marks   []arrivalMark // one per node, in arrival order
	late    sample        // generator lateness per arrival, ms
	adapted []*node       // nodes whose first adapted dispatch came
	settled bool          // the base recorded a lease for every adapted extension
}

// firstErr is the error of the first arrival that failed, or nil.
func (a admission) firstErr() error {
	for _, m := range a.marks {
		if !m.ok() {
			return fmt.Errorf("%s: %w", m.node.name, m.res.err)
		}
	}
	return nil
}

// admit arms every node for the policy set at version and lets them in on
// an open-loop schedule (offsets nil: all at once), each in its own
// goroutine, then waits for their first adapted dispatches. An arrival the
// base never adapts is a failed operation; nothing retries it.
//
// A node dispatches before its install response has reached the base, so
// admit finally waits until the base has scheduled the renewal of every
// lease it granted.
func admit(h *hall, nodes []*node, offsets []time.Duration, version int) admission {
	names := h.policyNames()
	for _, n := range nodes {
		n.arm(names, limitFor(version))
	}
	a := admission{marks: make([]arrivalMark, len(nodes))}
	fire := func(i int, due time.Time) {
		a.marks[i] = arrivalMark{node: nodes[i], due: due, start: time.Now()} //lint:allow clockcheck (the benchmark measures wall-clock time)
		arrive(nodes[i])
	}
	if offsets == nil {
		start := time.Now() //lint:allow clockcheck (the benchmark measures wall-clock time)
		for i := range nodes {
			fire(i, start)
		}
	} else {
		for _, l := range pace(time.Now().Add(time.Millisecond), offsets, fire) { //lint:allow clockcheck (the benchmark measures wall-clock time)
			a.late = append(a.late, float64(l)/1e6)
		}
	}
	collect(a.marks, a.marks[len(a.marks)-1].due.Add(adaptTimeout))
	for _, m := range a.marks {
		if m.ok() {
			a.adapted = append(a.adapted, m.node)
		}
	}
	a.settled = settled(h, len(a.adapted)*len(h.cfg.policy))
	return a
}

// depart takes nodes out of the hall and lets their leases lapse: the
// manual clock jumps past the lease, the base's renewals to the departed
// nodes fail and it forgets them, and each receiver's grantor expires the
// leases and withdraws the advice. It waits until all of that happened and
// reports whether it did. Only call it when no other node is in the hall.
func depart(h *hall, nodes []*node) bool {
	for _, n := range nodes {
		n.leave()
	}
	h.clk.Advance(leaseDur + 2*time.Second)
	until := time.Now().Add(adaptTimeout) //lint:allow clockcheck (the benchmark measures wall-clock time)
	for time.Now().Before(until) {        //lint:allow clockcheck (the benchmark measures wall-clock time)
		if h.base.RenewalsQuiesced() && len(h.base.Adapted()) == 0 && withdrawn(nodes) {
			return true
		}
		time.Sleep(time.Millisecond) //lint:allow clockcheck (the benchmark paces and polls in real time)
	}
	return false
}

// settled waits until the base schedules exactly leases renewals.
func settled(h *hall, leases int) bool {
	until := time.Now().Add(adaptTimeout) //lint:allow clockcheck (the benchmark measures wall-clock time)
	for h.base.ScheduledRenewals() != leases {
		if time.Now().After(until) { //lint:allow clockcheck (the benchmark measures wall-clock time)
			return false
		}
		time.Sleep(20 * time.Microsecond) //lint:allow clockcheck (the benchmark paces and polls in real time)
	}
	return true
}

func withdrawn(nodes []*node) bool {
	for _, n := range nodes {
		if len(n.weaver.Aspects()) > 0 {
			return false
		}
	}
	return true
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}
