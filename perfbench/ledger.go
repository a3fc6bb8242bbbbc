package main

import (
	"time"

	"repro/internal/aop"
	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/jit"
	"repro/internal/lvm"
	"repro/internal/lvm/analysis"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/transport"
	"repro/internal/weave"
)

// ledgerReps is how many timed measurements each ledger stage takes; the
// stage reports their median.
const ledgerReps = 31

// perOpUS times batch calls of fn per measurement, reps times, and returns
// the median time per call in microseconds.
func perOpUS(reps, batch int, fn func()) float64 {
	s := make(sample, reps)
	for i := range s {
		start := time.Now() //lint:allow clockcheck (the benchmark measures wall-clock time)
		for j := 0; j < batch; j++ {
			fn()
		}
		s[i] = float64(time.Since(start)) / 1e3 / float64(batch)
	}
	return s.median()
}

// ledgerLayers times each adaptation stage by direct calls into its module
// on the workload's own policy set, plus dispatch through a node that has
// the whole set woven: admit (analysis + admission check), sign, verify,
// bytecode analysis, JIT compilation, weave insert/replace/withdraw, the
// applyBatch body's wire encode/decode, and the svc.invoke body's encode and
// decode. The receiver interprets advice rather than JIT-compiling it, so
// jit.compile_us prices compiling the same bytecode, off the adaptation
// path. Per-extension stages report the median over the set's extensions.
func ledgerLayers(h *hall, o *outcome) {
	policy := h.cfg.policy
	layers := o.layers
	fail := func(stage string, err error) bool {
		if err != nil {
			o.problemf("ledger %s: %v", stage, err)
		}
		return err != nil
	}
	trust := sign.NewTrustStore()
	trust.Trust("base", h.signer.PublicKey())
	host := ext.NewNodeHost(ext.NodeHostConfig{KV: store.NewKV()})
	env := &core.Env{NodeName: "ledger", BaseAddr: h.addr, Host: host}

	var admitT, signT, verifyT, analyzeT, compileT, insertT, replaceT, withdrawT sample
	apply := core.ApplyBatchReq{}
	for _, x := range policy {
		rep, err := core.AnalyzeExtension(x)
		if fail("admit", err) || fail("admit", core.CheckAdmission(x, rep, nil, nil, hallName)) {
			return
		}
		admitT = append(admitT, perOpUS(ledgerReps, 1, func() {
			rep, _ := core.AnalyzeExtension(x)
			_ = core.CheckAdmission(x, rep, nil, nil, hallName)
		}))
		signed, err := core.Sign(h.signer, x)
		if fail("sign", err) || fail("verify", signed.Verify(trust)) {
			return
		}
		signT = append(signT, perOpUS(ledgerReps, 1, func() { _, _ = core.Sign(h.signer, x) }))
		verifyT = append(verifyT, perOpUS(ledgerReps, 1, func() { _ = signed.Verify(trust) }))
		apply.Installs = append(apply.Installs, core.InstallReq{Signed: signed, BaseAddr: h.addr, DurMillis: leaseDur.Milliseconds()})

		var advices []aop.Advice
		for _, a := range x.Advices {
			var body aop.Body
			if a.Builtin != "" {
				body, err = h.builtins.New(a.Builtin, env, a.Config)
			} else {
				body, err = core.CompileAdvice(a.Code, host)
				if err == nil {
					var prog *lvm.Program
					if prog, err = lvm.Assemble(a.Code); err != nil {
						fail("analyze", err)
						return
					}
					analyzeT = append(analyzeT, perOpUS(ledgerReps, 1, func() { _, _ = analysis.AnalyzeProgram(prog) }))
					compileT = append(compileT, perOpUS(ledgerReps, 1, func() { _, _ = jit.NewMachine(prog, nil, host).CompileAll() }))
				}
			}
			if fail("advice "+a.Name, err) {
				return
			}
			advices = append(advices, aop.BeforeCall(a.Pattern, body))
		}
		w := weave.New()
		svc.NewRegistry(w).Register(armService, armMethod, []string{"int"}, "int", func(args []lvm.Value) (lvm.Value, error) { return args[0], nil })
		aspect := func() *aop.Aspect { return &aop.Aspect{Name: x.Name, Priority: x.Priority, Advices: advices} }
		var ins, rep2, wd sample
		for i := 0; i < ledgerReps; i++ {
			a1, a2 := aspect(), aspect()
			t0 := time.Now() //lint:allow clockcheck (the benchmark measures wall-clock time)
			err1 := w.Insert(a1)
			t1 := time.Now() //lint:allow clockcheck (the benchmark measures wall-clock time)
			err2 := w.Replace(x.Name, a2)
			t2 := time.Now() //lint:allow clockcheck (the benchmark measures wall-clock time)
			err3 := w.Withdraw(x.Name)
			t3 := time.Now() //lint:allow clockcheck (the benchmark measures wall-clock time)
			if fail("weave", firstErr(err1, err2, err3)) {
				return
			}
			ins = append(ins, float64(t1.Sub(t0))/1e3)
			rep2 = append(rep2, float64(t2.Sub(t1))/1e3)
			wd = append(wd, float64(t3.Sub(t2))/1e3)
		}
		insertT, replaceT, withdrawT = append(insertT, ins.median()), append(replaceT, rep2.median()), append(withdrawT, wd.median())
	}
	layers["core.admit_us"] = admitT.median()
	layers["sign.sign_us"] = signT.median()
	layers["sign.verify_us"] = verifyT.median()
	if len(analyzeT) > 0 {
		layers["analysis.analyze_us"] = analyzeT.median()
		layers["jit.compile_us"] = compileT.median()
	}
	layers["weave.insert_us"] = insertT.median()
	layers["weave.replace_us"] = replaceT.median()
	layers["weave.withdraw_us"] = withdrawT.median()

	body, _, err := transport.EncodeBody(apply, true)
	if fail("wire apply", err) {
		return
	}
	var back core.ApplyBatchReq
	if fail("wire apply", transport.Decode(body, &back)) {
		return
	}
	layers["wire.apply_encode_us"] = perOpUS(ledgerReps, 10, func() { _, _, _ = transport.EncodeBody(apply, true) })
	layers["wire.apply_decode_us"] = perOpUS(ledgerReps, 10, func() { _ = transport.Decode(body, &back) })

	invoke := svc.InvokeReq{Service: armService, Method: armMethod, Caller: operator, Args: []lvm.Value{lvm.Int(probeArg)}}
	ib, _, err := transport.EncodeBody(invoke, true)
	if fail("wire invoke", err) {
		return
	}
	var iback svc.InvokeReq
	layers["wire.invoke_encode_us"] = perOpUS(ledgerReps, 20, func() { _, _, _ = transport.EncodeBody(invoke, true) })
	layers["wire.invoke_decode_us"] = perOpUS(ledgerReps, 20, func() { _ = transport.Decode(ib, &iback) })

	// Dispatch through a receiver that has the whole set woven.
	n, err := h.newNode("ledger-node")
	if fail("dispatch node", err) {
		return
	}
	defer n.close()
	for _, in := range apply.Installs {
		if _, err := n.recv.Install(in.Signed, h.addr, leaseDur); fail("dispatch install", err) {
			return
		}
	}
	v, err := n.services.Invoke(armService, armMethod, operator, []lvm.Value{lvm.Int(probeArg)})
	if fail("dispatch", err) {
		return
	}
	if v.I != limitFor(1) {
		o.problemf("ledger dispatch returned %d, want %d", v.I, limitFor(1))
	}
	args := []lvm.Value{lvm.Int(probeArg)}
	layers["weave.dispatch_us"] = perOpUS(ledgerReps, 100, func() {
		_, _ = n.services.Invoke(armService, armMethod, operator, args)
	})
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
