package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// TestOverloadedGoldenText freezes the shed sentinel's wire text. The hint
// travels inside the error string — that is what crosses every fabric — so
// these literals are a compatibility surface: changing them strands the
// retry-after hint between a server and a caller of different builds.
func TestOverloadedGoldenText(t *testing.T) {
	cases := []struct {
		err      error
		text     string
		hint     time.Duration
		overload bool
	}{
		{Overloaded(0), "transport: overloaded", 0, true},
		{Overloaded(250 * time.Millisecond), "transport: overloaded; retry-after-ms=250", 250 * time.Millisecond, true},
		// Sub-millisecond hints round up: a zero would read as "no hint".
		{Overloaded(time.Microsecond), "transport: overloaded; retry-after-ms=1", time.Millisecond, true},
		{ErrOverloaded, "transport: overloaded", 0, true},
		{ErrUnreachable, "transport: destination unreachable", 0, false},
	}
	for _, c := range cases {
		if got := c.err.Error(); got != c.text {
			t.Errorf("text = %q, want %q", got, c.text)
		}
		hint, ok := RetryAfterHint(c.err)
		if ok != c.overload || hint != c.hint {
			t.Errorf("RetryAfterHint(%q) = %v, %v; want %v, %v", c.err, hint, ok, c.hint, c.overload)
		}
	}
}

// TestOverloadedRemoteSentinel proves the sentinel and its hint survive the
// remote-error round trip every fabric uses: the server-side error text is
// re-wrapped by NewRemoteError on the caller and still unwraps and parses.
func TestOverloadedRemoteSentinel(t *testing.T) {
	remote := NewRemoteError("base.query", Overloaded(75*time.Millisecond).Error())
	if !errors.Is(remote, ErrOverloaded) {
		t.Fatalf("remote error %q does not unwrap to ErrOverloaded", remote)
	}
	if hint, ok := RetryAfterHint(remote); !ok || hint != 75*time.Millisecond {
		t.Fatalf("hint = %v, %v; want 75ms, true", hint, ok)
	}
}

// overloadedEnvelopeGolden is the frozen wire response envelope for a
// handler that shed with Overloaded(250ms): errText string + empty body.
const overloadedEnvelopeGolden = "297472616e73706f72743a206f7665726c6f616465643b2072657472792d61667465722d6d733d32353000"

// TestOverloadedEnvelopeGolden drives a raw TCP wire exchange against a
// shedding handler and compares the response envelope byte for byte.
func TestOverloadedEnvelopeGolden(t *testing.T) {
	mux := NewMux()
	mux.HandleRaw("shed", func(ctx context.Context, body []byte) ([]byte, error) {
		return nil, Overloaded(250 * time.Millisecond)
	})
	srv, err := ServeTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))

	if _, err := conn.Write([]byte{0x00, 0xC6, wire.Version}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)

	e := wire.GetEncoder()
	e.String("shed")
	e.String("") // trace ID
	e.String("") // span ID
	e.Byte(0)    // sampling flags
	e.Varint(0)  // budget
	e.Bytes(nil)
	payload := append([]byte{}, e.Data()...)
	wire.PutEncoder(e)
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := conn.Write(append(lenBuf[:n], payload...)); err != nil {
		t.Fatal(err)
	}

	plen, err := binary.ReadUvarint(br)
	if err != nil {
		t.Fatal(err)
	}
	rpayload := make([]byte, plen)
	if _, err := io.ReadFull(br, rpayload); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(rpayload); got != overloadedEnvelopeGolden {
		t.Fatalf("shed response envelope drifted:\n got: %s\nwant: %s", got, overloadedEnvelopeGolden)
	}
}

// shedThenOKCaller returns remote overload errors for the first n calls,
// then succeeds — a server that recovered after shedding.
type shedThenOKCaller struct {
	n     int
	hint  time.Duration
	calls int
}

func (c *shedThenOKCaller) Call(ctx context.Context, to, method string, req, resp any) error {
	c.calls++
	if c.calls <= c.n {
		return NewRemoteError(method, Overloaded(c.hint).Error())
	}
	return nil
}

// TestPolicyRetriesOverloadedAfterHint proves cooperative backpressure on
// the caller: a shed is retried — even though remote application errors are
// not — and the retry waits exactly the server's hint, not the policy's own
// backoff.
func TestPolicyRetriesOverloadedAfterHint(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	reg := metrics.New()
	pol := testPolicy(3, clk) // BaseDelay 0: any wait comes from the hint
	pol.MaxAttempts = 3
	pol.Instrument(reg)
	inner := &shedThenOKCaller{n: 1, hint: 250 * time.Millisecond}

	done := make(chan error, 1)
	go func() {
		done <- pol.Wrap(inner).Call(context.Background(), "base", "base.query", nil, nil)
	}()
	waitTimers(t, clk, 1)
	clk.Advance(249 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("retried before the hinted delay elapsed: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("call after hinted retry: %v", err)
	}
	if inner.calls != 2 {
		t.Fatalf("calls = %d, want 2", inner.calls)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["transport.retry_overloads"]; got != 1 {
		t.Fatalf("transport.retry_overloads = %d, want 1", got)
	}
	if got := snap.Counters["transport.retries"]; got != 1 {
		t.Fatalf("transport.retries = %d, want 1", got)
	}
}

// TestPolicyOverloadedGivesUpAtMaxAttempts proves a persistently shedding
// server still exhausts the attempt budget rather than retrying forever.
func TestPolicyOverloadedGivesUpAtMaxAttempts(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	pol := testPolicy(3, clk)
	pol.MaxAttempts = 3
	inner := &shedThenOKCaller{n: 100, hint: 0} // hint 0: no wait, synchronous

	err := pol.Wrap(inner).Call(context.Background(), "base", "base.query", nil, nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if inner.calls != 3 {
		t.Fatalf("calls = %d, want 3 (attempt budget)", inner.calls)
	}
}

// TestBreakerIgnoresOverloadSheds proves sheds never open a circuit, even
// under a hair-trigger breaker whose FailIf counts every error: tripping on
// backpressure would convert a recoverable overload into minutes of outage.
func TestBreakerIgnoresOverloadSheds(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	set := NewBreakerSet(1, BreakerConfig{
		Threshold: 1, Cooldown: 5 * time.Second, Jitter: 0, Clock: clk,
		FailIf: func(error) bool { return true },
	})
	inner := &shedThenOKCaller{n: 5, hint: 100 * time.Millisecond}
	c := set.Wrap(inner)
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		if err := c.Call(ctx, "base", "base.query", nil, nil); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("shed %d: %v", i, err)
		}
		if got := set.State("base"); got != BreakerClosed {
			t.Fatalf("breaker %v after %d sheds, want closed", got, i+1)
		}
	}
	// A genuine transport failure still trips the threshold-1 circuit.
	down := &flakyCaller{down: true}
	c = set.Wrap(down)
	if err := c.Call(ctx, "base", "base.query", nil, nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("transport failure: %v", err)
	}
	if err := c.Call(ctx, "base", "base.query", nil, nil); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("after transport failure: %v, want ErrBreakerOpen", err)
	}
}

// FuzzRetryAfterHint hammers the hint parser with arbitrary remote error
// texts: it must never panic, must report ok exactly when the sentinel text
// is present, and must never return a negative hint.
func FuzzRetryAfterHint(f *testing.F) {
	f.Add("transport: overloaded")
	f.Add("transport: overloaded; retry-after-ms=250")
	f.Add("transport: overloaded; retry-after-ms=")
	f.Add("transport: overloaded; retry-after-ms=99999999999999999999999")
	f.Add("retry-after-ms=5")
	f.Add("some other error")
	f.Fuzz(func(t *testing.T, msg string) {
		err := NewRemoteError("m", msg)
		hint, ok := RetryAfterHint(err)
		if ok != errors.Is(err, ErrOverloaded) {
			t.Fatalf("ok = %v but errors.Is = %v for %q", ok, !ok, msg)
		}
		if strings.Contains(msg, ErrOverloaded.Error()) && !ok {
			t.Fatalf("sentinel text present but ok=false for %q", msg)
		}
		if hint < 0 {
			t.Fatalf("negative hint %v for %q", hint, msg)
		}
	})
}
