package transport

import (
	"context"
	"errors"
	"testing"

	"repro/internal/trace"
)

// TestRemoteErrorSentinelRoundTrip is the regression test for the lost
// sentinel bug: ErrNoMethod used to round-trip over TCP as a plain string,
// so errors.Is held on the in-proc fabric but not over the wire. Both
// fabrics must now behave identically.
func TestRemoteErrorSentinelRoundTrip(t *testing.T) {
	mux := newEchoMux()

	t.Run("inproc", func(t *testing.T) {
		fabric := NewInProc()
		stop, _ := fabric.Serve("b", mux)
		defer stop()
		_, err := Invoke[echoReq, echoResp](context.Background(), fabric.Node("a"), "b", "nope", echoReq{})
		if !errors.Is(err, ErrNoMethod) {
			t.Fatalf("in-proc unknown method: errors.Is(err, ErrNoMethod) = false, err = %v", err)
		}
	})

	t.Run("tcp", func(t *testing.T) {
		srv, err := ServeTCP("127.0.0.1:0", mux)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		caller := NewTCPCaller()
		defer caller.Close()
		_, err = Invoke[echoReq, echoResp](context.Background(), caller, srv.Addr(), "nope", echoReq{})
		if !errors.Is(err, ErrNoMethod) {
			t.Fatalf("TCP unknown method: errors.Is(err, ErrNoMethod) = false, err = %v", err)
		}
		var remote *RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("still want a RemoteError wrapper, got %v", err)
		}
	})
}

func TestRegisterRemoteSentinel(t *testing.T) {
	errCustom := errors.New("custom: widget jammed")
	RegisterRemoteSentinel(errCustom)
	RegisterRemoteSentinel(errCustom, nil) // dup + nil are ignored

	re := NewRemoteError("m", "handler said: custom: widget jammed (code 7)")
	if !errors.Is(re, errCustom) {
		t.Fatalf("registered sentinel not recovered from %q", re.Msg)
	}
	if errors.Is(NewRemoteError("m", "unrelated"), errCustom) {
		t.Fatal("sentinel matched an unrelated message")
	}
	// Transient retry classification must not change: remote errors are
	// never retried even when they unwrap to a sentinel.
	if RetryTransient(re) {
		t.Fatal("RemoteError with sentinel became retryable")
	}
}

// TestTraceEnvelopeOverTCP checks the wire propagation: a span context on
// the caller's ctx must arrive in the server handler's ctx.
func TestTraceEnvelopeOverTCP(t *testing.T) {
	got := make(chan trace.SpanContext, 1)
	mux := NewMux()
	Register(mux, "probe", func(ctx context.Context, _ echoReq) (echoResp, error) {
		sc, _ := trace.FromContext(ctx)
		got <- sc
		return echoResp{}, nil
	})
	srv, err := ServeTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	caller := NewTCPCaller()
	defer caller.Close()

	tr := trace.New(1)
	ctx, sp := tr.StartSpan(context.Background(), "client")
	if _, err := Invoke[echoReq, echoResp](ctx, caller, srv.Addr(), "probe", echoReq{}); err != nil {
		t.Fatal(err)
	}
	sp.End(nil)
	if sc := <-got; sc != sp.Context() {
		t.Fatalf("server saw %+v, want %+v", sc, sp.Context())
	}

	// Without a span on ctx the envelope carries the zero context.
	if _, err := Invoke[echoReq, echoResp](context.Background(), caller, srv.Addr(), "probe", echoReq{}); err != nil {
		t.Fatal(err)
	}
	if sc := <-got; sc.Valid() {
		t.Fatalf("untraced call leaked span context %+v", sc)
	}
}

// TestPolicyAttemptSpans checks that a traced retrying caller opens one
// child "rpc.attempt" span per attempt under the logical call span.
func TestPolicyAttemptSpans(t *testing.T) {
	fails := 2
	inner := callerFunc(func(ctx context.Context, to, method string, req, resp any) error {
		if fails > 0 {
			fails--
			return ErrUnreachable
		}
		return nil
	})
	tr := trace.New(2)
	pol := NewPolicy(1)
	pol.BaseDelay = 0
	pol.Trace(tr)
	wrapped := TraceCalls(pol.Wrap(inner), tr)

	if err := wrapped.Call(context.Background(), "n", "m", nil, nil); err != nil {
		t.Fatal(err)
	}
	calls := tr.Spans(trace.Filter{Name: "rpc.call"})
	if len(calls) != 1 {
		t.Fatalf("got %d rpc.call spans, want 1", len(calls))
	}
	attempts := tr.Spans(trace.Filter{Name: "rpc.attempt"})
	if len(attempts) != 3 {
		t.Fatalf("got %d rpc.attempt spans, want 3", len(attempts))
	}
	for i, a := range attempts {
		if a.ParentID != calls[0].SpanID || a.TraceID != calls[0].TraceID {
			t.Fatalf("attempt %d not a child of the call span: %+v", i, a)
		}
		if i < 2 && a.Err == "" {
			t.Fatalf("failed attempt %d recorded no error", i)
		}
	}
	if attempts[2].Err != "" {
		t.Fatalf("final attempt recorded error %q", attempts[2].Err)
	}
}

type callerFunc func(ctx context.Context, to, method string, req, resp any) error

func (f callerFunc) Call(ctx context.Context, to, method string, req, resp any) error {
	return f(ctx, to, method, req, resp)
}

// TestTraceHandling checks the serve-side wrapper parents its span to the
// inbound context and tags the node.
func TestTraceHandling(t *testing.T) {
	tr := trace.New(3)
	h := TraceHandling(newEchoMux(), tr, "n1")
	ctx, sp := tr.StartSpan(context.Background(), "caller")
	body, _ := Marshal(echoReq{Msg: "x", N: 1})
	if _, err := h.Handle(ctx, "echo", body); err != nil {
		t.Fatal(err)
	}
	sp.End(nil)
	serves := tr.Spans(trace.Filter{Name: "rpc.serve"})
	if len(serves) != 1 {
		t.Fatalf("got %d rpc.serve spans, want 1", len(serves))
	}
	if serves[0].ParentID != sp.Context().SpanID || serves[0].Tags["node"] != "n1" {
		t.Fatalf("serve span shape wrong: %+v", serves[0])
	}
	if TraceHandling(newEchoMux(), nil, "") == nil {
		t.Fatal("nil tracer should pass handler through")
	}
}

// TestSampledBitPropagatesAcrossTCP pins head-sampling coherence across the
// fabric: the root's decision must override whatever the remote tracer would
// decide locally — a sampled-in trace is recorded even by a server whose own
// sampler drops everything, and a sampled-out trace stays out even where the
// server's sampler would keep it.
func TestSampledBitPropagatesAcrossTCP(t *testing.T) {
	for _, tc := range []struct {
		name       string
		clientRate float64
		serverRate float64
		wantServed int
	}{
		{"wire/sampled-in-overrides-server-drop", 1, 0, 1},
		{"wire/sampled-out-overrides-server-keep", 0, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srvTr := trace.New(2)
			srvTr.SetSampler(trace.SamplerConfig{Rate: tc.serverRate, Seed: 2})
			srv, err := ServeTCP("127.0.0.1:0", TraceHandling(newEchoMux(), srvTr, "n1"))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			caller := NewTCPCaller()
			defer caller.Close()
			cliTr := trace.New(1)
			cliTr.SetSampler(trace.SamplerConfig{Rate: tc.clientRate, Seed: 1})
			c := TraceCalls(caller, cliTr)
			if _, err := Invoke[echoReq, echoResp](context.Background(), c, srv.Addr(), "echo", echoReq{Msg: "a", N: 2}); err != nil {
				t.Fatal(err)
			}
			served := srvTr.Spans(trace.Filter{Name: "rpc.serve"})
			if len(served) != tc.wantServed {
				t.Fatalf("server recorded %d rpc.serve spans, want %d", len(served), tc.wantServed)
			}
			if tc.wantServed == 1 {
				calls := cliTr.Spans(trace.Filter{Name: "rpc.call"})
				if len(calls) != 1 {
					t.Fatalf("client recorded %d rpc.call spans, want 1", len(calls))
				}
				if served[0].TraceID != calls[0].TraceID {
					t.Fatalf("server joined trace %q, client rooted %q", served[0].TraceID, calls[0].TraceID)
				}
			}
		})
	}
}
