package store

import "repro/internal/wire"

// Wire codecs for the movement records the monitoring extensions post to a
// base and the filters clients query them with.

// MarshalWire encodes r with the wire codec.
func (r Record) MarshalWire(e *wire.Encoder) {
	e.Varint(r.Seq)
	e.String(r.Robot)
	e.String(r.Device)
	e.String(r.Action)
	e.Varint(r.Value)
	e.Varint(r.AtMillis)
	e.Varint(r.DurMilli)
}

// UnmarshalWire decodes r from the wire codec.
func (r *Record) UnmarshalWire(d *wire.Decoder) error {
	r.Seq = d.Varint()
	r.Robot = d.String()
	r.Device = d.String()
	r.Action = d.String()
	r.Value = d.Varint()
	r.AtMillis = d.Varint()
	r.DurMilli = d.Varint()
	return d.Err()
}

// MarshalWire encodes f with the wire codec.
func (f Filter) MarshalWire(e *wire.Encoder) {
	e.String(f.Robot)
	e.String(f.Device)
	e.String(f.Action)
	e.Varint(f.Since)
	e.Varint(f.Until)
}

// UnmarshalWire decodes f from the wire codec.
func (f *Filter) UnmarshalWire(d *wire.Decoder) error {
	f.Robot = d.String()
	f.Device = d.String()
	f.Action = d.String()
	f.Since = d.Varint()
	f.Until = d.Varint()
	return d.Err()
}
