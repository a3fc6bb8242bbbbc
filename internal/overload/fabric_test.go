package overload

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/simnet"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ping is a trivial request body for fabric tests.
type ping struct{ N int }

func (p ping) MarshalWire(e *wire.Encoder) { e.Varint(int64(p.N)) }

func (p *ping) UnmarshalWire(d *wire.Decoder) error {
	p.N = int(d.Varint())
	return d.Err()
}

// blockingHandler counts invocations and parks each one on release until the
// test lets it finish.
type blockingHandler struct {
	mu      sync.Mutex
	calls   int
	release chan struct{}
}

func (h *blockingHandler) Handle(ctx context.Context, method string, body []byte) ([]byte, error) {
	h.mu.Lock()
	h.calls++
	h.mu.Unlock()
	if h.release != nil {
		<-h.release
	}
	return transport.Marshal(ping{})
}

func (h *blockingHandler) callCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls
}

// testDeadlineShed drives the shared scenario on one fabric: a single-slot
// limiter is occupied by a blocked call, a second call with a short deadline
// queues behind it and expires — and must be dropped without the wrapped
// handler ever running.
func testDeadlineShed(t *testing.T, serve func(t *testing.T, h transport.Handler) (newCaller func() transport.Caller, addr string, stop func())) {
	inner := &blockingHandler{release: make(chan struct{})}
	lim := NewLimiter(Config{InitialLimit: 1, MinLimit: 1, MaxLimit: 1, QueueDepth: 4})
	newCaller, addr, stop := serve(t, Wrap(inner, lim, nil, nil))
	defer stop()

	done := make(chan error, 1)
	go func() {
		done <- newCaller().Call(context.Background(), addr, "midas.list", &ping{N: 1}, nil)
	}()
	testutil.WaitFor(t, "first call inflight", func() bool { return lim.Snapshot().Inflight == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := newCaller().Call(ctx, addr, "midas.list", &ping{N: 2}, nil); err == nil {
		t.Fatal("expired call succeeded, want deadline drop")
	}
	// The expiry is recorded server-side even when the client saw only its
	// own context deadline (the TCP fabric forwards the budget).
	testutil.WaitFor(t, "expired drop counted", func() bool { return lim.Snapshot().ExpiredDrops == 1 })

	close(inner.release)
	if err := <-done; err != nil {
		t.Fatalf("blocked call: %v", err)
	}
	testutil.WaitFor(t, "slot released", func() bool { return lim.Snapshot().Inflight == 0 })
	if got := inner.callCount(); got != 1 {
		t.Fatalf("handler ran %d times, want 1 (expired request must not run)", got)
	}
}

func TestDeadlineShedInProc(t *testing.T) {
	testDeadlineShed(t, func(t *testing.T, h transport.Handler) (func() transport.Caller, string, func()) {
		net := transport.NewInProc()
		stop, err := net.Serve("srv", h)
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		i := 0
		return func() transport.Caller { i++; return net.Node("cli") }, "srv", stop
	})
}

func TestDeadlineShedSimnet(t *testing.T) {
	testDeadlineShed(t, func(t *testing.T, h transport.Handler) (func() transport.Caller, string, func()) {
		net := simnet.New(clock.NewManual(t0), 1)
		if _, err := net.Serve("srv", h); err != nil {
			t.Fatalf("serve: %v", err)
		}
		return func() transport.Caller { return net.Node("cli") }, "srv", net.Close
	})
}

func TestDeadlineShedTCP(t *testing.T) {
	testDeadlineShed(t, func(t *testing.T, h transport.Handler) (func() transport.Caller, string, func()) {
		srv, err := transport.ServeTCP("127.0.0.1:0", h)
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		var callers []*transport.TCPCaller
		var mu sync.Mutex
		newCaller := func() transport.Caller {
			c := transport.NewTCPCaller()
			mu.Lock()
			callers = append(callers, c)
			mu.Unlock()
			return c
		}
		stop := func() {
			mu.Lock()
			defer mu.Unlock()
			for _, c := range callers {
				c.Close()
			}
			srv.Close()
		}
		return newCaller, srv.Addr(), stop
	})
}

// TestHandlerPeerRateShed proves the base-edge token buckets shed a chatty
// peer's governed calls with the overload sentinel (which round-trips the
// fabric as a remote error), while other methods and other peers flow.
func TestHandlerPeerRateShed(t *testing.T) {
	clk := clock.NewManual(t0)
	inner := &blockingHandler{} // nil release: never blocks
	bk := NewBuckets(BucketConfig{Rate: 1, Burst: 2, Methods: []string{"base.query"}, Clock: clk})
	lim := NewLimiter(Config{Clock: clk})
	h := Wrap(inner, lim, bk, nil)

	net := transport.NewInProc()
	if _, err := net.Serve("base", h); err != nil {
		t.Fatalf("serve: %v", err)
	}
	cli := net.Node("node-1")
	for i := 0; i < 2; i++ {
		if err := cli.Call(context.Background(), "base", "base.query", &ping{N: i}, nil); err != nil {
			t.Fatalf("burst call %d: %v", i, err)
		}
	}
	err := cli.Call(context.Background(), "base", "base.query", &ping{N: 3}, nil)
	if !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("third call err = %v, want ErrOverloaded", err)
	}
	if hint, ok := transport.RetryAfterHint(err); !ok || hint != time.Second {
		t.Fatalf("hint = %v, %v; want 1s, true", hint, ok)
	}
	// Ungoverned method from the rated-down peer still passes.
	if err := cli.Call(context.Background(), "base", "midas.list", &ping{}, nil); err != nil {
		t.Fatalf("ungoverned call: %v", err)
	}
	// Another peer has a fresh bucket.
	if err := net.Node("node-2").Call(context.Background(), "base", "base.query", &ping{}, nil); err != nil {
		t.Fatalf("other peer call: %v", err)
	}
	if got := inner.callCount(); got != 4 {
		t.Fatalf("handler ran %d times, want 4 (shed call must not run)", got)
	}
	s := h.Snapshot()
	if s.PeerSheds != 1 || s.ShedRead != 1 || s.Sheds() != 1 || s.Peers != 2 || s.Admitted != 4 {
		t.Fatalf("snapshot: %+v", s)
	}
}
