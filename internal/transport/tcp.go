package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The TCP fabric's protocol: the client opens every connection with the
// 3-byte wire frame header as a preface, which the server checks before it
// reads anything else. Then both sides exchange length-prefixed envelopes —
// a uvarint payload length, then the payload's wire fields:
//
//	request:  method · trace (IDs and sampling flags) · budget · body
//	response: error text ("" on success) · body
//
// The body is an already-encoded wire frame copied in verbatim, so nothing
// is encoded twice. The budget is the caller's remaining time to its
// deadline in milliseconds (0 = none): relative, not an absolute timestamp,
// so clock skew between peers cannot corrupt it, and an overloaded server can
// drop a request whose caller already gave up.

// maxEnvelope caps one wire envelope (64 MiB): a corrupt or hostile length
// prefix must not allocate unbounded memory.
const maxEnvelope = 1 << 26

// TCPServer serves a Handler over real TCP connections.
type TCPServer struct {
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	m atomic.Pointer[serverMetrics]
}

// serverMetrics is the serve-side RPC accounting.
type serverMetrics struct {
	requests  *metrics.Counter
	errors    *metrics.Counter
	bytesIn   *metrics.Counter
	bytesOut  *metrics.Counter
	wireConns *metrics.Counter
	handleNs  *metrics.Histogram
	openConns *metrics.Gauge
}

// Instrument records served requests (count, errors, payload bytes, handler
// latency), the accepted-connection counter and the open-connection
// gauge in reg. Safe to call while serving; a nil reg is a no-op.
func (s *TCPServer) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.m.Store(&serverMetrics{
		requests:  reg.Counter("transport.serve_requests"),
		errors:    reg.Counter("transport.serve_errors"),
		bytesIn:   reg.Counter("transport.serve_bytes_received"),
		bytesOut:  reg.Counter("transport.serve_bytes_sent"),
		wireConns: reg.Counter("transport.serve_wire_conns"),
		handleNs:  reg.Histogram("transport.serve_ns", nil),
		openConns: reg.Gauge("transport.serve_open_conns"),
	})
}

// ServeTCP starts a server on addr ("127.0.0.1:0" picks a free port).
func ServeTCP(addr string, h Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &TCPServer{ln: ln, handler: h, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes open connections and waits for handlers.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	if sm := s.m.Load(); sm != nil {
		sm.openConns.Add(1)
	}
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		if sm := s.m.Load(); sm != nil {
			sm.openConns.Add(-1)
		}
	}()

	br := bufio.NewReader(conn)
	var preface [3]byte
	if _, err := io.ReadFull(br, preface[:]); err != nil {
		return
	}
	if !wire.IsFrame(preface[:]) || preface[2] != wire.Version {
		return
	}
	if sm := s.m.Load(); sm != nil {
		sm.wireConns.Inc()
	}
	peer := ""
	if ra := conn.RemoteAddr(); ra != nil {
		peer = ra.String()
	}
	bw := bufio.NewWriter(conn)
	var lenBuf [binary.MaxVarintLen64]byte
	for {
		plen, err := binary.ReadUvarint(br)
		if err != nil || plen > maxEnvelope {
			return
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		d := wire.NewDecoder(payload)
		method := d.String()
		var sc trace.SpanContext
		_ = sc.UnmarshalWire(d)
		budgetMillis := d.Varint()
		body := d.Bytes()
		if d.Err() != nil {
			return
		}
		// The response goes through a pooled encoder straight onto the
		// socket's buffered writer: no intermediate envelope allocation.
		rbody, herr := s.handle(sc, peer, budgetMillis, method, body)
		e := wire.GetEncoder()
		if herr != nil {
			e.String(herr.Error())
		} else {
			e.String("")
		}
		e.Bytes(rbody)
		n := binary.PutUvarint(lenBuf[:], uint64(len(e.Data())))
		_, werr := bw.Write(lenBuf[:n])
		if werr == nil {
			_, werr = bw.Write(e.Data())
		}
		if werr == nil {
			werr = bw.Flush()
		}
		wire.PutEncoder(e)
		if werr != nil {
			return
		}
	}
}

// handle dispatches one request to the handler with metrics accounting. The
// handler context carries the peer's address and, when the caller sent a
// deadline budget, a matching local deadline — so the overload layer can drop
// a request whose caller already gave up without invoking the handler.
func (s *TCPServer) handle(sc trace.SpanContext, peer string, budgetMillis int64, method string, body []byte) ([]byte, error) {
	sm := s.m.Load()
	start := time.Time{}
	if sm != nil {
		sm.requests.Inc()
		sm.bytesIn.Add(uint64(len(body)))
		start = time.Now() //lint:allow clockcheck (real RPC latency metric)
	}
	ctx := WithPeer(trace.NewContext(context.Background(), sc), peer)
	if budgetMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(budgetMillis)*time.Millisecond)
		defer cancel()
	}
	out, err := s.handler.Handle(ctx, method, body)
	if sm != nil {
		sm.handleNs.Since(start)
		if err != nil {
			sm.errors.Inc()
		}
		sm.bytesOut.Add(uint64(len(out)))
	}
	return out, err
}

// TCPCaller issues calls over TCP, keeping one pooled connection per
// destination.
type TCPCaller struct {
	DialTimeout time.Duration

	mu    sync.Mutex
	conns map[string]*tcpClientConn

	m atomic.Pointer[fabricMetrics]
}

// Instrument records every outbound call (count, errors, timeouts, payload
// bytes, latency) in reg, sharing metric names with the in-proc fabric. Safe
// to call while calls are in flight; a nil reg is a no-op.
func (c *TCPCaller) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	c.m.Store(newFabricMetrics(reg))
}

type tcpClientConn struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// NewTCPCaller returns a caller with a 2s dial timeout.
func NewTCPCaller() *TCPCaller {
	return &TCPCaller{
		DialTimeout: 2 * time.Second,
		conns:       make(map[string]*tcpClientConn),
	}
}

// Call implements Caller. to is a host:port address.
func (c *TCPCaller) Call(ctx context.Context, to, method string, req, resp any) (err error) {
	fm := c.m.Load()
	if fm != nil {
		fm.calls.Inc()
		start := time.Now() //lint:allow clockcheck (real RPC latency metric)
		defer func() { fm.finishCall(start, err) }()
	}
	body, err := Marshal(req)
	if err != nil {
		return err
	}
	cc, err := c.conn(ctx, to)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("transport: dial %s: %w", to, ctxErr)
		}
		return fmt.Errorf("%w: %s: %v", ErrUnreachable, to, err)
	}
	if fm != nil {
		fm.wireReqs.Inc()
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	deadline, hasDeadline := ctx.Deadline()
	_ = cc.conn.SetDeadline(deadline) // the zero time clears an earlier call's deadline
	// A deadline alone does not observe cancellation: on cancel, abort the
	// in-flight round trip by forcing a deadline in the past. The callback is
	// waited for below, so it can never land on the connection's next call.
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		_ = cc.conn.SetDeadline(time.Unix(1, 0))
		close(fired)
	})
	sc, _ := trace.FromContext(ctx)
	// The deadline rides the envelope as a relative budget (remaining ms,
	// rounded up so a tight-but-live deadline never truncates to "none").
	var budgetMillis int64
	if hasDeadline {
		if remaining := time.Until(deadline); remaining > 0 { //lint:allow clockcheck (real deadline budget for the wire)
			budgetMillis = int64((remaining + time.Millisecond - 1) / time.Millisecond)
		}
	}
	callErr := c.roundTrip(cc, fm, method, sc, budgetMillis, body, resp)
	if !stop() {
		<-fired
	}
	if callErr != nil {
		ctxErr := ctx.Err()
		// The conn deadline equals the ctx deadline and its poller can fire
		// a moment before the ctx timer: map that to expiry too.
		if ctxErr == nil && hasDeadline && !time.Now().Before(deadline) { //lint:allow clockcheck (compares against the conn's real deadline)
			ctxErr = context.DeadlineExceeded
		}
		if ctxErr != nil {
			// Surface cancellation/expiry as the context error, not the I/O
			// error the forced deadline produced.
			callErr = fmt.Errorf("transport: call %s %s: %w", to, method, ctxErr)
		}
		if _, isRemote := callErr.(*RemoteError); !isRemote {
			// Connection-level failure: drop the pooled connection.
			c.drop(to, cc)
		}
	}
	return callErr
}

// roundTrip writes one request envelope and reads its response.
func (c *TCPCaller) roundTrip(cc *tcpClientConn, fm *fabricMetrics, method string, sc trace.SpanContext, budgetMillis int64, body []byte, resp any) error {
	e := wire.GetEncoder()
	e.String(method)
	sc.MarshalWire(e)
	e.Varint(budgetMillis)
	e.Bytes(body)
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(e.Data())))
	_, err := cc.bw.Write(lenBuf[:n])
	if err == nil {
		_, err = cc.bw.Write(e.Data())
	}
	if err == nil {
		err = cc.bw.Flush()
	}
	wire.PutEncoder(e)
	if err != nil {
		return err
	}
	if fm != nil {
		fm.bytesOut.Add(uint64(len(body)))
	}
	plen, err := binary.ReadUvarint(cc.br)
	if err != nil {
		return err
	}
	if plen > maxEnvelope {
		return fmt.Errorf("transport: response envelope of %d bytes exceeds cap", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(cc.br, payload); err != nil {
		return err
	}
	d := wire.NewDecoder(payload)
	errText := d.String()
	rbody := d.Bytes()
	if derr := d.Err(); derr != nil {
		return fmt.Errorf("%w %v", ErrDecode, derr)
	}
	if fm != nil {
		fm.bytesIn.Add(uint64(len(rbody)))
	}
	if errText != "" {
		return NewRemoteError(method, errText)
	}
	if resp == nil {
		return nil
	}
	return Decode(rbody, resp)
}

// Close closes all pooled connections.
func (c *TCPCaller) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cc := range c.conns {
		cc.conn.Close()
	}
	c.conns = make(map[string]*tcpClientConn)
}

// conn returns the pooled connection to addr, dialing and sending the
// preface on first use.
func (c *TCPCaller) conn(ctx context.Context, to string) (*tcpClientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc, ok := c.conns[to]; ok {
		return cc, nil
	}
	// DialContext caps the dial at DialTimeout but also honors the caller's
	// ctx, so a tight deadline or cancellation cuts the dial short instead of
	// always waiting out the full timeout.
	d := net.Dialer{Timeout: c.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", to)
	if err != nil {
		return nil, err
	}
	cc := &tcpClientConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	// The preface is buffered and goes out with the first request.
	_, _ = cc.bw.Write(wire.Header())
	c.conns[to] = cc
	return cc, nil
}

func (c *TCPCaller) drop(to string, cc *tcpClientConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.conns[to]; ok && cur == cc {
		cc.conn.Close()
		delete(c.conns, to)
	}
}
