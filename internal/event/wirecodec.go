package event

import "repro/internal/wire"

// MarshalWire encodes n with the wire codec. Body is already a wire frame
// (PublishTo encodes it) and is carried as opaque bytes.
func (n Notification) MarshalWire(e *wire.Encoder) {
	e.String(n.Source)
	e.Varint(n.Seq)
	e.String(n.Kind)
	e.Bytes(n.Body)
	n.Trace.MarshalWire(e)
}

// UnmarshalWire decodes n from the wire codec.
func (n *Notification) UnmarshalWire(d *wire.Decoder) error {
	n.Source = d.String()
	n.Seq = d.Varint()
	n.Kind = d.String()
	n.Body = d.Bytes()
	return n.Trace.UnmarshalWire(d)
}

// MarshalWire encodes a with the wire codec.
func (a Ack) MarshalWire(e *wire.Encoder) {}

// UnmarshalWire decodes a from the wire codec.
func (a *Ack) UnmarshalWire(d *wire.Decoder) error { return d.Err() }
