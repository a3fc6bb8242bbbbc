package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/wire"
)

func TestEncodeBodyPicksCodecPerType(t *testing.T) {
	data, usedWire, err := EncodeBody(echoReq{Msg: "x", N: 1}, true)
	if err != nil || !usedWire || !wire.IsFrame(data) {
		t.Fatalf("coded type: usedWire=%v frame=%v err=%v", usedWire, wire.IsFrame(data), err)
	}
	// A type without a codec cannot be sent at all.
	if _, err := Marshal(struct{ N int }{1}); err == nil {
		t.Fatal("codec-less type encoded")
	}
}

func TestDecodeDispatchesOnFrameHeader(t *testing.T) {
	in := echoReq{Msg: "hello", N: 42}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out echoReq
	if err := Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v want %+v", out, in)
	}
	// Bytes without a frame header, and a target without a codec, both fail
	// with ErrDecode rather than guessing.
	if err := Decode([]byte("not a frame"), &out); !errors.Is(err, ErrDecode) {
		t.Fatalf("unframed body: %v", err)
	}
	var eo struct{ N int }
	if err := Decode(data, &eo); !errors.Is(err, ErrDecode) {
		t.Fatalf("frame into codec-less type: %v", err)
	}
}

func TestInProcWireBodiesCounted(t *testing.T) {
	fabric := NewInProc()
	reg := metrics.New()
	fabric.Instrument(reg)
	stop, _ := fabric.Serve("b", newEchoMux())
	defer stop()
	resp, err := Invoke[echoReq, echoResp](context.Background(), fabric.Node("a"), "b", "echo", echoReq{Msg: "ab", N: 2})
	if err != nil || resp.Msg != "abab" {
		t.Fatalf("resp=%q err=%v", resp.Msg, err)
	}
	if got := testutil.Counter(reg, "transport.wire_bodies"); got != 1 {
		t.Fatalf("wire_bodies = %d, want 1", got)
	}
}

func TestTCPNegotiatesWireEnvelope(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sreg := metrics.New()
	srv.Instrument(sreg)
	caller := NewTCPCaller()
	defer caller.Close()
	creg := metrics.New()
	caller.Instrument(creg)
	resp, err := Invoke[echoReq, echoResp](context.Background(), caller, srv.Addr(), "echo", echoReq{Msg: "ab", N: 3})
	if err != nil || resp.Msg != "ababab" {
		t.Fatalf("resp=%q err=%v", resp.Msg, err)
	}
	if got := testutil.Counter(sreg, "transport.serve_wire_conns"); got != 1 {
		t.Fatalf("serve_wire_conns = %d, want 1", got)
	}
	if got := testutil.Counter(creg, "transport.wire_bodies"); got != 1 {
		t.Fatalf("wire_bodies = %d, want 1", got)
	}
}

// TestTCPServerRejectsBadPreface: a connection that does not open with this
// build's frame header (here, another codec version) is closed unread.
func TestTCPServerRejectsBadPreface(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newEchoMux())
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
	if _, err := conn.Write([]byte{0x00, 0xC6, wire.Version + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after bad preface = %v, want EOF (connection closed)", err)
	}
}

// writeEnvelope sends one length-prefixed request envelope.
func writeEnvelope(t *testing.T, conn net.Conn, payload []byte) {
	t.Helper()
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := conn.Write(append(lenBuf[:n], payload...)); err != nil {
		t.Fatal(err)
	}
}

// readEnvelope reads one length-prefixed response envelope's payload.
func readEnvelope(t *testing.T, br *bufio.Reader) []byte {
	t.Helper()
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestTCPWireEnvelopeLayout is the regression test pinning the frame layout:
// it speaks the protocol with raw socket reads and writes, byte for byte —
// preface, then an envelope of (uvarint length, method, trace, budget, body)
// where the body is one wire frame copied in verbatim. If any of this
// drifts, deployed nodes stop interoperating; change the codec version
// instead.
func TestTCPWireEnvelopeLayout(t *testing.T) {
	served := make(chan context.Context, 2)
	mux := newEchoMux()
	inner := mux.handlers["echo"]
	mux.HandleRaw("echo", func(ctx context.Context, body []byte) ([]byte, error) {
		served <- ctx
		return inner(ctx, body)
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

	// The preface, as raw bytes; the server sends nothing back.
	if _, err := conn.Write([]byte{0x00, 0xC6, wire.Version}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)

	// Request envelope, assembled by hand. The body is the wire frame for
	// echoReq{Msg:"ab", N:2} and must appear in the envelope verbatim
	// (encoded exactly once).
	body := wire.Marshal(echoReq{Msg: "ab", N: 2})
	e := wire.GetEncoder()
	e.String("echo") // method
	e.String("")     // trace ID (absent)
	e.String("")     // span ID (absent)
	e.Byte(0)        // sampling flags (none)
	e.Varint(0)      // budget (no deadline)
	e.Bytes(body)
	payload := append([]byte{}, e.Data()...)
	wire.PutEncoder(e)
	if !bytes.Contains(payload, body) {
		t.Fatal("request body not embedded verbatim in the envelope")
	}
	writeEnvelope(t, conn, payload)

	// Response envelope: uvarint length, then errText string + body bytes,
	// the body again one verbatim wire frame.
	d := wire.NewDecoder(readEnvelope(t, br))
	if errText := d.String(); errText != "" {
		t.Fatalf("remote error: %q", errText)
	}
	rbody := d.Bytes()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	want := wire.Marshal(echoResp{Msg: "abab"})
	if !bytes.Equal(rbody, want) {
		t.Fatalf("response body drifted:\n got: % x\nwant: % x", rbody, want)
	}
	if _, ok := (<-served).Deadline(); ok {
		t.Fatal("a zero budget gave the handler a deadline")
	}

	// Second request on the same connection, with a trace, sampling flags
	// and a 60 s budget: the handler sees all three.
	e = wire.GetEncoder()
	e.String("echo")
	e.String("t-1") // trace ID
	e.String("s-1") // span ID
	e.Byte(0x03)    // FlagSampleKnown | FlagSampled
	e.Varint(60_000)
	e.Bytes(body)
	payload = append([]byte{}, e.Data()...)
	wire.PutEncoder(e)
	writeEnvelope(t, conn, payload)
	d = wire.NewDecoder(readEnvelope(t, br))
	if errText := d.String(); errText != "" {
		t.Fatalf("traced request remote error: %q", errText)
	}
	if !bytes.Equal(d.Bytes(), want) {
		t.Fatal("traced request got a different response body")
	}
	ctx := <-served
	if sc, _ := trace.FromContext(ctx); sc != (trace.SpanContext{TraceID: "t-1", SpanID: "s-1", Flags: 0x03}) {
		t.Fatalf("handler saw span context %+v", sc)
	}
	if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > time.Minute {
		t.Fatalf("handler deadline = %v, %v; want within the 60 s budget", dl, ok)
	}
}
