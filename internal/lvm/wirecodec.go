package lvm

import (
	"fmt"

	"repro/internal/wire"
)

// Wire codec for scalar values, which cross the fabric as service-call
// arguments and results: the kind byte, then the payload that kind uses.
// Objects hold class pointers and never cross a fabric; their kind byte is
// written but rejected on decode.

// MarshalWire encodes v with the wire codec.
func (v Value) MarshalWire(e *wire.Encoder) {
	e.Byte(byte(v.K))
	switch v.K {
	case KInt, KBool:
		e.Varint(v.I)
	case KStr:
		e.String(v.S)
	case KBytes:
		e.Bytes(v.B)
	}
}

// UnmarshalWire decodes v from the wire codec.
func (v *Value) UnmarshalWire(d *wire.Decoder) error {
	*v = Value{K: Kind(d.Byte())}
	switch v.K {
	case KNil:
	case KInt, KBool:
		v.I = d.Varint()
	case KStr:
		v.S = d.String()
	case KBytes:
		v.B = d.Bytes()
	default:
		// A failed kind read leaves K at KNil, so only a real object or an
		// unknown kind gets here.
		return fmt.Errorf("wire: lvm %s value cannot cross the wire", v.K)
	}
	return d.Err()
}
