package svc

import (
	"repro/internal/lvm"
	"repro/internal/wire"
)

// MarshalWire encodes r with the wire codec.
func (r InvokeReq) MarshalWire(e *wire.Encoder) {
	e.String(r.Service)
	e.String(r.Method)
	e.String(r.Caller)
	wire.Slice(e, r.Args)
}

// UnmarshalWire decodes r from the wire codec.
func (r *InvokeReq) UnmarshalWire(d *wire.Decoder) error {
	r.Service = d.String()
	r.Method = d.String()
	r.Caller = d.String()
	r.Args = wire.DecodeSlice[lvm.Value](d)
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r InvokeResp) MarshalWire(e *wire.Encoder) { r.Result.MarshalWire(e) }

// UnmarshalWire decodes r from the wire codec.
func (r *InvokeResp) UnmarshalWire(d *wire.Decoder) error { return r.Result.UnmarshalWire(d) }
