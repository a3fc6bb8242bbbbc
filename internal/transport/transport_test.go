package transport

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

type echoReq struct {
	Msg string
	N   int
}

func (r echoReq) MarshalWire(e *wire.Encoder) {
	e.String(r.Msg)
	e.Varint(int64(r.N))
}

func (r *echoReq) UnmarshalWire(d *wire.Decoder) error {
	r.Msg = d.String()
	r.N = int(d.Varint())
	return d.Err()
}

type echoResp struct {
	Msg string
}

func (r echoResp) MarshalWire(e *wire.Encoder) { e.String(r.Msg) }

func (r *echoResp) UnmarshalWire(d *wire.Decoder) error {
	r.Msg = d.String()
	return d.Err()
}

func newEchoMux() *Mux {
	mux := NewMux()
	Register(mux, "echo", func(_ context.Context, req echoReq) (echoResp, error) {
		return echoResp{Msg: strings.Repeat(req.Msg, req.N)}, nil
	})
	Register(mux, "fail", func(_ context.Context, _ echoReq) (echoResp, error) {
		return echoResp{}, errors.New("deliberate failure")
	})
	return mux
}

func TestInProcRoundTrip(t *testing.T) {
	fabric := NewInProc()
	stop, err := fabric.Serve("nodeB", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	caller := fabric.Node("nodeA")
	resp, err := Invoke[echoReq, echoResp](context.Background(), caller, "nodeB", "echo", echoReq{Msg: "ab", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "ababab" {
		t.Errorf("resp = %q", resp.Msg)
	}
}

func TestInProcRemoteError(t *testing.T) {
	fabric := NewInProc()
	stop, _ := fabric.Serve("b", newEchoMux())
	defer stop()
	_, err := Invoke[echoReq, echoResp](context.Background(), fabric.Node("a"), "b", "fail", echoReq{})
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "deliberate failure") {
		t.Fatalf("want RemoteError, got %v", err)
	}
}

func TestInProcUnknownMethodAndNode(t *testing.T) {
	fabric := NewInProc()
	stop, _ := fabric.Serve("b", newEchoMux())
	defer stop()
	caller := fabric.Node("a")
	_, err := Invoke[echoReq, echoResp](context.Background(), caller, "b", "nope", echoReq{})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("unknown method: %v", err)
	}
	_, err = Invoke[echoReq, echoResp](context.Background(), caller, "ghost", "echo", echoReq{})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unknown node: %v", err)
	}
}

func TestInProcLinkFunc(t *testing.T) {
	fabric := NewInProc()
	stop, _ := fabric.Serve("b", newEchoMux())
	defer stop()
	var mu sync.Mutex
	up := true
	fabric.SetLinkFunc(func(from, to string) bool {
		mu.Lock()
		defer mu.Unlock()
		return up
	})
	caller := fabric.Node("a")
	if _, err := Invoke[echoReq, echoResp](context.Background(), caller, "b", "echo", echoReq{Msg: "x", N: 1}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	up = false
	mu.Unlock()
	_, err := Invoke[echoReq, echoResp](context.Background(), caller, "b", "echo", echoReq{Msg: "x", N: 1})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned call: %v", err)
	}
}

func TestInProcDuplicateAddress(t *testing.T) {
	fabric := NewInProc()
	stop, err := fabric.Serve("a", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.Serve("a", newEchoMux()); err == nil {
		t.Fatal("duplicate address should fail")
	}
	stop()
	// After stop the address is reusable.
	stop2, err := fabric.Serve("a", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	stop2()
}

func TestInProcLatencyRespectsContext(t *testing.T) {
	fabric := NewInProc()
	stop, _ := fabric.Serve("b", newEchoMux())
	defer stop()
	fabric.SetLatency(500 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Invoke[echoReq, echoResp](ctx, fabric.Node("a"), "b", "echo", echoReq{Msg: "x", N: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	if time.Since(start) > 200*time.Millisecond {
		t.Error("call did not respect context deadline")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	caller := NewTCPCaller()
	defer caller.Close()
	for i := 0; i < 3; i++ { // exercise connection reuse
		resp, err := Invoke[echoReq, echoResp](context.Background(), caller, srv.Addr(), "echo", echoReq{Msg: "hi", N: 2})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Msg != "hihi" {
			t.Errorf("resp = %q", resp.Msg)
		}
	}
}

func TestTCPRemoteError(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	caller := NewTCPCaller()
	defer caller.Close()
	_, err = Invoke[echoReq, echoResp](context.Background(), caller, srv.Addr(), "fail", echoReq{})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	// The connection survives a remote error.
	if _, err := Invoke[echoReq, echoResp](context.Background(), caller, srv.Addr(), "echo", echoReq{Msg: "a", N: 1}); err != nil {
		t.Fatalf("call after remote error: %v", err)
	}
}

func TestTCPUnreachable(t *testing.T) {
	caller := NewTCPCaller()
	caller.DialTimeout = 100 * time.Millisecond
	defer caller.Close()
	err := caller.Call(context.Background(), "127.0.0.1:1", "echo", echoReq{}, nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want unreachable, got %v", err)
	}
}

func TestTCPServerClose(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	caller := NewTCPCaller()
	defer caller.Close()
	if _, err := Invoke[echoReq, echoResp](context.Background(), caller, addr, "echo", echoReq{Msg: "x", N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	caller.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := caller.Call(ctx, addr, "echo", echoReq{Msg: "x", N: 1}, nil); err == nil {
		t.Fatal("call to closed server should fail")
	}
}

func TestMuxMethods(t *testing.T) {
	mux := newEchoMux()
	methods := mux.Methods()
	if len(methods) != 2 {
		t.Errorf("Methods = %v", methods)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := echoReq{Msg: "payload", N: 7}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out echoReq
	if err := Decode(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("roundtrip = %+v", out)
	}
}
