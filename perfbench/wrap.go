package main

import (
	"context"

	"repro/internal/trace"
	"repro/internal/transport"
)

// timedCaller records a span around every call it forwards. It wraps the
// raw fabric caller, inside the program's own tracing and metrics wrappers,
// so the span times the fabric alone.
type timedCaller struct {
	inner transport.Caller
	rec   *recorder
	node  string
}

func (c *timedCaller) Call(ctx context.Context, to, method string, req, resp any) error {
	sc, _ := trace.FromContext(ctx)
	ctx, sp := c.rec.begin(ctx, "call "+method, c.node, sc.TraceID)
	sp.Peer = to
	err := c.inner.Call(ctx, to, method, req, resp)
	sp.Err = err != nil
	c.rec.end(sp)
	return err
}

// timedHandler is the outermost handler of a base or node. In a traced run
// it records a span around every request it serves; in every run it calls
// after once a request has been served without error.
type timedHandler struct {
	inner transport.Handler
	rec   *recorder // nil: no spans
	node  string
	after func(ctx context.Context, method string)
}

func (h *timedHandler) Handle(ctx context.Context, method string, body []byte) ([]byte, error) {
	var sp span
	if h.rec != nil {
		sc, _ := trace.FromContext(ctx)
		ctx, sp = h.rec.begin(ctx, "serve "+method, h.node, sc.TraceID)
	}
	out, err := h.inner.Handle(ctx, method, body)
	if h.rec != nil {
		sp.Err = err != nil
		h.rec.end(sp)
	}
	if err == nil && h.after != nil {
		h.after(ctx, method)
	}
	return out, err
}
