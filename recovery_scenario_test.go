// Crash-recovery scenarios: durable journals, anti-entropy reconciliation and
// per-node circuit breakers played out over the deterministic network
// simulator. Like the other scenario tests these run on a manual clock with a
// seeded fault stream; set SIMNET_SEED to replay a failing run exactly.
package repro

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sign"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// recoveryBaseOpts selects the robustness features a scenario base runs with.
type recoveryBaseOpts struct {
	journal        *core.BaseJournal
	breaker        *transport.BreakerSet
	reconcileEvery time.Duration
}

// newRecoveryBase mirrors newBase but wires in a state journal, a per-node
// circuit breaker and/or the periodic reconciler.
func (w *simWorld) newRecoveryBase(name string, signer *sign.Signer, o recoveryBaseOpts) *scenarioBase {
	w.t.Helper()
	var err error
	if signer == nil {
		if signer, err = sign.NewSigner(name); err != nil {
			w.t.Fatal(err)
		}
	}
	pol := transport.NewPolicy(w.seed)
	pol.Clock = w.clk
	pol.BaseDelay = 0 // retry back-to-back; scenarios drive faults, not backoff
	pol.MaxAttempts = 8
	b := &scenarioBase{name: name, reg: metrics.New(), signer: signer, pol: pol}
	pol.Instrument(b.reg)
	b.base, err = core.NewBase(core.BaseConfig{
		Name:           name,
		Addr:           name,
		Caller:         w.net.Node(name),
		Signer:         signer,
		Clock:          w.clk,
		LeaseDur:       10 * time.Second,
		RenewRetries:   2,
		CallTimeout:    time.Hour, // the policy and the simulated clock govern
		Policy:         pol,
		Breaker:        o.breaker,
		Journal:        o.journal,
		ReconcileEvery: o.reconcileEvery,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(b.base.Close)
	b.base.Instrument(b.reg)
	mux := transport.NewMux()
	b.base.ServeOn(mux)
	stop, err := w.net.Serve(name, mux)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(stop)
	return b
}

// Scenario R1 — base crash and restart mid-push, recovered from the journal:
// the base loses the link right as it pushes a second extension, crashes, and
// a restarted base replays its state journal (resuming the surviving lease
// rather than re-pushing it) and reconciles the node back to the full policy
// set. For the same seed the final installed set is identical, by DeepEqual,
// to a run where the base never crashed.
func TestScenarioBaseCrashMidPushConverges(t *testing.T) {
	seed := scenarioSeed(t)

	run := func(crash bool) []core.ExtensionInfo {
		clk := clock.NewManual(time.Unix(0, 0))
		net := simnet.New(clk, seed)
		defer net.Close()
		w := &simWorld{t: t, clk: clk, net: net, seed: seed}
		dir := t.TempDir()
		j, err := core.OpenBaseJournal(dir)
		if err != nil {
			t.Fatal(err)
		}

		b1 := w.newRecoveryBase("base-1", nil, recoveryBaseOpts{journal: j})
		n := w.newNode("robot1", b1.signer)
		if err := b1.base.AddExtension(noopScenarioExt("guard", 1)); err != nil {
			t.Fatal(err)
		}
		if err := b1.base.AdaptNode(context.Background(), "robot1", "robot1"); err != nil {
			t.Fatal(err)
		}

		if !crash {
			if err := b1.base.AddExtension(noopScenarioExt("monitor", 1)); err != nil {
				t.Fatal(err)
			}
			w.advance(25*time.Second, time.Second)
			return n.receiver.Installed()
		}

		// The link drops right as "monitor" is pushed: the push is lost, and
		// the base dies before it can retry.
		net.PartitionBoth("base-1", "robot1")
		if err := b1.base.AddExtension(noopScenarioExt("monitor", 1)); err != nil {
			t.Fatal(err)
		}
		net.Crash("base-1")
		b1.base.Close()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		// A fresh base process on the same address replays the journal: the
		// node and its surviving "guard" lease come back without a re-push.
		net.Wipe("base-1")
		j2, err := core.OpenBaseJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		b2 := w.newRecoveryBase("base-1", b1.signer, recoveryBaseOpts{journal: j2})
		if err := b2.base.AddExtension(noopScenarioExt("guard", 1)); err != nil {
			t.Fatal(err)
		}
		if err := b2.base.AddExtension(noopScenarioExt("monitor", 1)); err != nil {
			t.Fatal(err)
		}
		restored, err := b2.base.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if restored != 1 {
			t.Fatalf("restored = %d nodes, want 1", restored)
		}

		net.HealAll()
		res := b2.base.ReconcileNow(context.Background())
		r := res["robot1"]
		if len(r.Repushed) != 1 || r.Repushed[0] != "monitor" {
			t.Fatalf("repushed = %v, want [monitor] (the push the crash ate)", r.Repushed)
		}
		if len(r.Revoked) != 0 {
			t.Fatalf("revoked = %v, want none", r.Revoked)
		}
		if got := n.counter("ext.installs"); got != 2 {
			t.Fatalf("ext.installs = %d, want 2 (guard was resumed, not re-pushed)", got)
		}
		w.advance(25*time.Second, time.Second)
		return n.receiver.Installed()
	}

	want := run(false)
	got := run(true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("crash run diverged from fault-free run:\ncrash:      %+v\nfault-free: %+v", got, want)
	}
	if len(want) != 2 {
		t.Fatalf("fault-free run installed %d extensions, want 2", len(want))
	}
}

// Scenario R2 — receiver wiped during a partition: the node loses the link,
// the base's renewals trip the circuit breaker and the node is parked as
// degraded — while the circuit is open, periodic reconcile rounds fast-fail
// locally and push nothing (no re-push storm into the partition). Meanwhile
// the node crashes and loses all state. When the link heals, the first
// inventory diff sees the empty node and re-adapts it from scratch.
func TestScenarioReceiverWipedDuringPartition(t *testing.T) {
	w := newSimWorld(t)
	breaker := transport.NewBreakerSet(w.seed, transport.BreakerConfig{
		Threshold: 3,
		Cooldown:  5 * time.Second,
		Jitter:    0.2,
		Clock:     w.clk,
	})
	b := w.newRecoveryBase("base-1", nil, recoveryBaseOpts{
		breaker:        breaker,
		reconcileEvery: 7 * time.Second,
	})
	w.newNode("robot1", b.signer)
	for _, name := range []string{"guard", "monitor"} {
		if err := b.base.AddExtension(noopScenarioExt(name, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.base.AdaptNode(context.Background(), "robot1", "robot1"); err != nil {
		t.Fatal(err)
	}

	// The node walks out of range; the failed renewal cycle (initial try plus
	// two retries) trips the breaker, so the base degrades instead of
	// forgetting the node.
	w.net.PartitionBoth("base-1", "robot1")
	w.advance(10*time.Second, time.Second)
	waitFor(t, "degradation", func() bool { return len(b.base.Degraded()) == 1 })
	if got := b.counter("base.departures"); got != 0 {
		t.Fatalf("base.departures = %d, want 0 (degraded, not departed)", got)
	}

	// Mid-partition the node dies and loses everything.
	w.net.Wipe("robot1")
	n2 := w.newNode("robot1", b.signer)

	// Two more reconcile periods inside the partition: rounds run but the
	// open circuit answers locally — nothing is pushed at the dead link.
	w.advance(14*time.Second, time.Second)
	if got := b.counter("base.reconcile_repushes"); got != 0 {
		t.Fatalf("reconcile_repushes = %d while partitioned, want 0", got)
	}
	if got := n2.counter("ext.installs"); got != 0 {
		t.Fatalf("wiped node saw %d installs while partitioned, want 0", got)
	}
	if got := b.counter("transport.breaker_fastfails"); got == 0 {
		t.Fatal("no breaker fast-fails recorded while partitioned")
	}

	// The link heals: the next reconcile probe lands, the first inventory
	// diff sees the wiped node and the whole policy set is re-pushed.
	w.net.HealAll()
	w.advance(15*time.Second, time.Second)
	waitFor(t, "re-adaptation after heal", func() bool {
		return n2.receiver.Has("guard") && n2.receiver.Has("monitor")
	})
	waitFor(t, "promotion from degraded", func() bool {
		return len(b.base.Degraded()) == 0 && len(b.base.Adapted()) == 1
	})
	if got := n2.counter("ext.installs"); got != 2 {
		t.Fatalf("ext.installs = %d at the wiped node, want 2 fresh installs", got)
	}
	if got := n2.counter("ext.refreshes"); got != 0 {
		t.Fatalf("ext.refreshes = %d, want 0 (the wipe left nothing to refresh)", got)
	}
	st := b.base.Status()
	if st.Drift.Repushes != 2 {
		t.Fatalf("drift repushes = %d, want 2", st.Drift.Repushes)
	}
	// And the re-pushed leases stay alive.
	w.advance(25*time.Second, time.Second)
	if !n2.receiver.Has("guard") || !n2.receiver.Has("monitor") {
		t.Fatal("re-adapted extensions lapsed")
	}
}

// Scenario R3 — missed revoke cleaned up by reconciliation: the base retires
// an extension while the node is partitioned, so the revoke never arrives.
// After the heal, one reconcile round spots the orphan in the inventory diff
// and withdraws it — observed at the node as a withdrawal (revoke path), not
// an expiry, with the extension's shutdown procedure run exactly once.
func TestScenarioMissedRevokeReconciled(t *testing.T) {
	w := newSimWorld(t)
	b := w.newRecoveryBase("base-1", nil, recoveryBaseOpts{})
	n := w.newNode("robot1", b.signer)
	if err := b.base.AddExtension(noopScenarioExt("guard", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.base.AddExtension(trackedScenarioExt("cleanup", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.base.AdaptNode(context.Background(), "robot1", "robot1"); err != nil {
		t.Fatal(err)
	}

	// The partition eats the revoke: the base retires "cleanup" from the
	// policy set, but the node still holds it under a live lease.
	w.net.PartitionBoth("base-1", "robot1")
	if err := b.base.RemoveExtension("cleanup"); err != nil {
		t.Fatal(err)
	}
	if !n.receiver.Has("cleanup") {
		t.Fatal("revoke reached the node through the partition")
	}

	w.net.HealAll()
	res := b.base.ReconcileNow(context.Background())
	r := res["robot1"]
	if len(r.Revoked) != 1 || r.Revoked[0] != "cleanup" {
		t.Fatalf("revoked = %v, want [cleanup]", r.Revoked)
	}
	if n.receiver.Has("cleanup") {
		t.Fatal("orphan survived reconciliation")
	}
	if !n.receiver.Has("guard") {
		t.Fatal("reconciliation removed a desired extension")
	}
	if got := n.counter("ext.withdrawals"); got != 1 {
		t.Fatalf("ext.withdrawals = %d, want 1 (cleaned by revoke)", got)
	}
	if got := n.counter("ext.expiries"); got != 0 {
		t.Fatalf("ext.expiries = %d, want 0 (reconciliation beat the lease timeout)", got)
	}
	if got := n.shutdowns.Load(); got != 1 {
		t.Fatalf("shutdowns = %d, want exactly 1", got)
	}
	if got := b.counter("base.reconcile_orphans"); got != 1 {
		t.Fatalf("base.reconcile_orphans = %d, want 1", got)
	}

	// The surviving lease keeps renewing; nothing ever expires.
	w.advance(25*time.Second, time.Second)
	if !n.receiver.Has("guard") {
		t.Fatal("guard lapsed after reconciliation")
	}
	if got := n.counter("ext.expiries"); got != 0 {
		t.Fatalf("ext.expiries = %d after settling, want 0", got)
	}
}
