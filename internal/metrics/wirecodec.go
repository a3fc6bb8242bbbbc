package metrics

import (
	"fmt"
	"sort"

	"repro/internal/wire"
)

// Wire codec for registry snapshots, which cross the fabric as the
// midas.metrics response. Maps are written in ascending key order, so equal
// snapshots encode to equal bytes, and decoding rejects any other order.

// MarshalWire encodes h with the wire codec.
func (h HistSnapshot) MarshalWire(e *wire.Encoder) {
	e.Len(len(h.Bounds))
	for _, b := range h.Bounds {
		e.Varint(b)
	}
	e.Len(len(h.Counts))
	for _, c := range h.Counts {
		e.Uvarint(c)
	}
	e.Uvarint(h.Count)
	e.Varint(h.Sum)
	e.Varint(h.P50)
	e.Varint(h.P95)
	e.Varint(h.P99)
}

// UnmarshalWire decodes h from the wire codec.
func (h *HistSnapshot) UnmarshalWire(d *wire.Decoder) error {
	h.Bounds = nil
	if n := d.Len(); n > 0 {
		h.Bounds = make([]int64, n)
		for i := range h.Bounds {
			h.Bounds[i] = d.Varint()
		}
	}
	h.Counts = nil
	if n := d.Len(); n > 0 {
		h.Counts = make([]uint64, n)
		for i := range h.Counts {
			h.Counts[i] = d.Uvarint()
		}
	}
	h.Count = d.Uvarint()
	h.Sum = d.Varint()
	h.P50 = d.Varint()
	h.P95 = d.Varint()
	h.P99 = d.Varint()
	return d.Err()
}

// MarshalWire encodes s with the wire codec.
func (s Snapshot) MarshalWire(e *wire.Encoder) {
	keys := sortedKeys(s.Counters)
	e.Len(len(keys))
	for _, k := range keys {
		e.String(k)
		e.Uvarint(s.Counters[k])
	}
	keys = sortedKeys(s.Gauges)
	e.Len(len(keys))
	for _, k := range keys {
		e.String(k)
		e.Varint(s.Gauges[k])
	}
	keys = sortedKeys(s.Histograms)
	e.Len(len(keys))
	for _, k := range keys {
		e.String(k)
		s.Histograms[k].MarshalWire(e)
	}
}

// UnmarshalWire decodes s from the wire codec.
func (s *Snapshot) UnmarshalWire(d *wire.Decoder) error {
	var err error
	if s.Counters, err = decodeMap(d, (*wire.Decoder).Uvarint); err != nil {
		return err
	}
	if s.Gauges, err = decodeMap(d, (*wire.Decoder).Varint); err != nil {
		return err
	}
	s.Histograms, err = decodeMap(d, func(d *wire.Decoder) HistSnapshot {
		var h HistSnapshot
		_ = h.UnmarshalWire(d) // a failure is sticky in d
		return h
	})
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// decodeMap reads a count-prefixed map whose keys must be in ascending order
// (length 0 decodes as nil).
func decodeMap[V any](d *wire.Decoder, value func(*wire.Decoder) V) (map[string]V, error) {
	n := d.Len()
	if d.Err() != nil || n == 0 {
		return nil, d.Err()
	}
	out := make(map[string]V, n)
	prev := ""
	for i := 0; i < n; i++ {
		k := d.String()
		v := value(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("wire: map keys out of order (%q after %q)", k, prev)
		}
		prev = k
		out[k] = v
	}
	return out, nil
}
