package trace

import "repro/internal/wire"

// Wire codec for SpanContext: it rides in every TCP request envelope and in
// every event notification, so trace propagation (sampling decision
// included) costs two length-prefixed strings and one byte.

// MarshalWire encodes sc with the wire codec.
func (sc SpanContext) MarshalWire(e *wire.Encoder) {
	e.String(sc.TraceID)
	e.String(sc.SpanID)
	e.Byte(sc.Flags)
}

// UnmarshalWire decodes sc from the wire codec.
func (sc *SpanContext) UnmarshalWire(d *wire.Decoder) error {
	sc.TraceID = d.String()
	sc.SpanID = d.String()
	sc.Flags = d.Byte()
	return d.Err()
}

// MarshalWire encodes a with the wire codec.
func (a Annotation) MarshalWire(e *wire.Encoder) {
	e.Varint(a.AtUnixNano)
	e.String(a.Msg)
}

// UnmarshalWire decodes a from the wire codec.
func (a *Annotation) UnmarshalWire(d *wire.Decoder) error {
	a.AtUnixNano = d.Varint()
	a.Msg = d.String()
	return d.Err()
}

// MarshalWire encodes s with the wire codec.
func (s SpanSnapshot) MarshalWire(e *wire.Encoder) {
	e.String(s.TraceID)
	e.String(s.SpanID)
	e.String(s.ParentID)
	e.String(s.Name)
	e.StringMap(s.Tags)
	e.Varint(s.StartUnixNano)
	e.Varint(s.EndUnixNano)
	e.String(s.Err)
	wire.Slice(e, s.Annotations)
}

// UnmarshalWire decodes s from the wire codec.
func (s *SpanSnapshot) UnmarshalWire(d *wire.Decoder) error {
	s.TraceID = d.String()
	s.SpanID = d.String()
	s.ParentID = d.String()
	s.Name = d.String()
	s.Tags = d.StringMap()
	s.StartUnixNano = d.Varint()
	s.EndUnixNano = d.Varint()
	s.Err = d.String()
	s.Annotations = wire.DecodeSlice[Annotation](d)
	return d.Err()
}

// MarshalWire encodes ev with the wire codec.
func (ev Event) MarshalWire(e *wire.Encoder) {
	e.Uvarint(ev.Seq)
	e.Varint(ev.AtUnixNano)
	e.String(ev.TraceID)
	e.String(ev.Component)
	e.String(ev.Msg)
}

// UnmarshalWire decodes ev from the wire codec.
func (ev *Event) UnmarshalWire(d *wire.Decoder) error {
	ev.Seq = d.Uvarint()
	ev.AtUnixNano = d.Varint()
	ev.TraceID = d.String()
	ev.Component = d.String()
	ev.Msg = d.String()
	return d.Err()
}
