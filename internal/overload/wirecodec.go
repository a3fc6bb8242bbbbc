package overload

import "repro/internal/wire"

// MarshalWire encodes s with the wire codec; it rides in the base.fleet
// report.
func (s Snapshot) MarshalWire(e *wire.Encoder) {
	e.Varint(int64(s.Limit))
	e.Varint(int64(s.Inflight))
	e.Varint(int64(s.Queued))
	e.Uvarint(s.Admitted)
	e.Uvarint(s.ShedKeepalive)
	e.Uvarint(s.ShedMutation)
	e.Uvarint(s.ShedRead)
	e.Uvarint(s.ExpiredDrops)
	e.Uvarint(s.PeerSheds)
	e.Varint(int64(s.Peers))
}

// UnmarshalWire decodes s from the wire codec.
func (s *Snapshot) UnmarshalWire(d *wire.Decoder) error {
	s.Limit = int(d.Varint())
	s.Inflight = int(d.Varint())
	s.Queued = int(d.Varint())
	s.Admitted = d.Uvarint()
	s.ShedKeepalive = d.Uvarint()
	s.ShedMutation = d.Uvarint()
	s.ShedRead = d.Uvarint()
	s.ExpiredDrops = d.Uvarint()
	s.PeerSheds = d.Uvarint()
	s.Peers = int(d.Varint())
	return d.Err()
}
