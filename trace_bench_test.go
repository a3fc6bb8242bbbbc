// Benchmarks for the tracing layer. The weaver holds no tracer: the receiver
// records the weave.insert/withdraw/replace spans around its weaver calls, so
// the weave hot path (one atomic load per inactive join point) and dispatch
// cannot pay for tracing. The fast-path and dispatch arms stay as the
// baseline that claim is checked against; the span arms price the
// control-plane cost itself.
package repro

import (
	"context"
	"testing"

	"repro/internal/aop"
	"repro/internal/trace"
	"repro/internal/weave"
)

func BenchmarkTraceOverhead(b *testing.B) {
	w := weave.New()
	idle := w.RegisterMethodSite(aop.MethodEntry,
		aop.Signature{Class: "Idle", Method: "m", Return: "void"})
	hot := w.RegisterMethodSite(aop.MethodEntry,
		aop.Signature{Class: "Hot", Method: "m", Return: "void"})
	if err := w.Insert(&aop.Aspect{Name: "noop", Advices: []aop.Advice{
		aop.BeforeCall("Hot.m(..)", aop.BodyFunc(func(*aop.Context) error { return nil })),
	}}); err != nil {
		b.Fatal(err)
	}

	b.Run("fast-path", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if idle.Active() {
				b.Fatal("idle site became active")
			}
		}
	})
	b.Run("dispatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := weave.GetContext()
			ctx.Kind = aop.MethodEntry
			ctx.Sig = hot.Sig
			if err := hot.Dispatch(ctx); err != nil {
				b.Fatal(err)
			}
			weave.PutContext(ctx)
		}
	})

	// Control-plane costs: what a span or event actually costs when recorded.
	tr := trace.New(1)
	b.Run("span-start-end", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sp := tr.StartSpan(context.Background(), "bench")
			sp.End(nil)
		}
	})
	b.Run("eventf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Eventf(nil, "bench", "event %d", i)
		}
	})
	b.Run("span-start-end/nil-tracer", func(b *testing.B) {
		var off *trace.Tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sp := off.StartSpan(context.Background(), "bench")
			sp.End(nil)
		}
	})
}

// BenchmarkSamplerOverhead prices the head sampler's outcomes. sampled-in is
// the full recording path (ring slot, random IDs) and bounds what the kept 1%
// costs. sampled-out/root still mints the trace ID — the decision hashes it —
// and a fresh context to carry the decision downstream. sampled-out/child is
// the fleet steady state: the decision already travels in the parent context,
// the caller's context is reused, and the span itself comes from a pool — the
// steady state allocates nothing. Both arms must leave the ring untouched.
func BenchmarkSamplerOverhead(b *testing.B) {
	b.Run("sampled-in", func(b *testing.B) {
		tr := trace.New(1)
		tr.SetSampler(trace.SamplerConfig{Rate: 1, Seed: 1})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sp := tr.StartSpan(context.Background(), "bench")
			sp.End(nil)
		}
	})
	b.Run("sampled-out/root", func(b *testing.B) {
		tr := trace.New(1)
		tr.SetSampler(trace.SamplerConfig{Rate: 0, Seed: 1})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sp := tr.StartSpan(context.Background(), "bench")
			sp.End(nil)
		}
		b.StopTimer()
		if out, _ := tr.SamplerStats(); out == 0 {
			b.Fatal("sampled-out arm recorded spans")
		}
		if used, _ := tr.RingOccupancy(); used != 0 {
			b.Fatalf("sampled-out arm left %d spans in the ring", used)
		}
	})
	b.Run("sampled-out/child", func(b *testing.B) {
		tr := trace.New(1)
		tr.SetSampler(trace.SamplerConfig{Rate: 0, Seed: 1})
		ctx, root := tr.StartSpan(context.Background(), "root")
		root.End(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sp := tr.StartSpan(ctx, "bench")
			sp.End(nil)
		}
		b.StopTimer()
		if used, _ := tr.RingOccupancy(); used != 0 {
			b.Fatalf("sampled-out arm left %d spans in the ring", used)
		}
	})
}
