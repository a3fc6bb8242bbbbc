// Package transport provides the RPC layer the platform's distributed pieces
// (lookup service, extension bases, adaptation services) communicate over.
// Every request and response body is a wire-codec frame (internal/wire):
// Register and Invoke only accept message types that carry a codec, so a
// type without one does not compile. Two interchangeable fabrics are
// provided: an in-process fabric whose connectivity is steered by the
// mobility simulator (standing in for the wireless network of the paper's
// testbed) and a real TCP fabric.
package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/wire"
)

// Handler serves RPC requests addressed to one node.
type Handler interface {
	Handle(ctx context.Context, method string, body []byte) ([]byte, error)
}

// Caller issues RPC requests to remote nodes.
type Caller interface {
	Call(ctx context.Context, to, method string, req, resp any) error
}

// Errors surfaced by the transports.
var (
	// ErrUnreachable indicates no route to the destination (node out of
	// range, partitioned or gone).
	ErrUnreachable = errors.New("transport: destination unreachable")
	// ErrNoMethod indicates the destination does not serve the method.
	ErrNoMethod = errors.New("transport: no such method")
	// ErrDecode indicates a request or response body failed to decode. It is
	// a registered remote sentinel, so a RemoteError from a peer that could
	// not decode the request unwraps to it too.
	ErrDecode = errors.New("transport: decode:")
)

// RemoteError wraps an error string returned by the remote handler. When the
// remote message matches a registered sentinel (see RegisterRemoteSentinel),
// Unwrap exposes it so errors.Is behaves identically whether the error
// crossed a process boundary or not.
type RemoteError struct {
	Method string
	Msg    string

	sentinel error
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Method, e.Msg)
}

// Unwrap exposes the sentinel recovered from the remote message, if any.
func (e *RemoteError) Unwrap() error { return e.sentinel }

// NewRemoteError builds the error a fabric reports for a remote handler
// failure, mapping well-known sentinel texts back to their sentinels. Every
// fabric (in-proc, TCP, simnet) constructs remote errors through this so
// errors.Is(err, ErrNoMethod) etc. hold on all of them.
func NewRemoteError(method, msg string) *RemoteError {
	return &RemoteError{Method: method, Msg: msg, sentinel: matchRemoteSentinel(msg)}
}

var (
	sentinelMu sync.RWMutex
	sentinels  = []error{ErrNoMethod, ErrDecode, ErrOverloaded}
)

// RegisterRemoteSentinel adds sentinel errors that should survive a trip over
// the wire: a remote error whose message contains a registered sentinel's
// text unwraps to that sentinel. Packages register their wire-visible
// sentinels at init (e.g. lease.ErrExpired), keeping the transport layer free
// of upward dependencies.
func RegisterRemoteSentinel(errs ...error) {
	sentinelMu.Lock()
	defer sentinelMu.Unlock()
	for _, err := range errs {
		if err == nil || err.Error() == "" {
			continue
		}
		dup := false
		for _, have := range sentinels {
			if have == err {
				dup = true
				break
			}
		}
		if !dup {
			sentinels = append(sentinels, err)
		}
	}
}

// matchRemoteSentinel finds the registered sentinel whose text appears in
// msg, preferring the longest match so more specific sentinels win.
func matchRemoteSentinel(msg string) error {
	sentinelMu.RLock()
	defer sentinelMu.RUnlock()
	var best error
	bestLen := 0
	for _, s := range sentinels {
		text := s.Error()
		if len(text) > bestLen && strings.Contains(msg, text) {
			best, bestLen = s, len(text)
		}
	}
	return best
}

// Marshal encodes a fabric body. v must carry a wire codec; the typed entry
// points (Register, Invoke) guarantee that at compile time, and this check
// covers the untyped Caller interface.
func Marshal(v any) ([]byte, error) {
	m, ok := v.(wire.Marshaler)
	if !ok {
		return nil, fmt.Errorf("transport: encode: %T has no wire codec", v)
	}
	return wire.Marshal(m), nil
}

// EncodeBody is Marshal with the result shape of the two-codec transport:
// useWire is ignored and the second result is always true on success. Only
// the benchmark (perfbench) still calls it; it goes with the next change to
// the benchmark.
func EncodeBody(v any, useWire bool) ([]byte, bool, error) {
	data, err := Marshal(v)
	return data, err == nil, err
}

// Decode decodes a fabric body into v, a pointer to a type with a wire
// codec. Failures wrap ErrDecode.
func Decode(data []byte, v any) error {
	u, ok := v.(wire.Unmarshaler)
	if !ok {
		return fmt.Errorf("%w %T has no wire codec", ErrDecode, v)
	}
	if err := wire.Unmarshal(data, u); err != nil {
		return fmt.Errorf("%w %v", ErrDecode, err)
	}
	return nil
}

// Mux dispatches methods to registered handler functions. It is safe for
// concurrent use; handlers may be added while serving.
type Mux struct {
	mu       sync.RWMutex
	handlers map[string]func(ctx context.Context, body []byte) ([]byte, error)
}

// NewMux returns an empty Mux.
func NewMux() *Mux {
	return &Mux{handlers: make(map[string]func(ctx context.Context, body []byte) ([]byte, error))}
}

// HandleRaw registers a raw body handler for method.
func (m *Mux) HandleRaw(method string, fn func(ctx context.Context, body []byte) ([]byte, error)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[method] = fn
}

// Handle implements Handler.
func (m *Mux) Handle(ctx context.Context, method string, body []byte) ([]byte, error) {
	m.mu.RLock()
	fn, ok := m.handlers[method]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoMethod, method)
	}
	return fn(ctx, body)
}

// Methods returns the registered method names (order unspecified).
func (m *Mux) Methods() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.handlers))
	for k := range m.handlers {
		out = append(out, k)
	}
	return out
}

// Register installs a typed handler for method on mux. Both message types
// must carry a wire codec (Req through its pointer).
func Register[Req any, Resp wire.Marshaler, PReq interface {
	*Req
	wire.Unmarshaler
}](mux *Mux, method string, fn func(ctx context.Context, req Req) (Resp, error)) {
	mux.HandleRaw(method, func(ctx context.Context, body []byte) ([]byte, error) {
		var req Req
		if err := Decode(body, PReq(&req)); err != nil {
			return nil, err
		}
		resp, err := fn(ctx, req)
		if err != nil {
			return nil, err
		}
		return wire.Marshal(resp), nil
	})
}

// Invoke performs a typed call through c. Both message types must carry a
// wire codec (Resp through its pointer).
func Invoke[Req wire.Marshaler, Resp any, PResp interface {
	*Resp
	wire.Unmarshaler
}](ctx context.Context, c Caller, to, method string, req Req) (Resp, error) {
	var resp Resp
	err := c.Call(ctx, to, method, req, PResp(&resp))
	return resp, err
}
