// Package wire is the platform's hand-rolled, zero-reflection binary codec,
// the one codec every RPC message on every fabric uses. Messages marshal
// themselves field by field into a flat byte buffer: unsigned varints for
// counts and lengths, zigzag varints for signed integers, length-prefixed
// UTF-8 for strings and raw bytes, and key-sorted entries for string maps so
// the same value always produces the same bytes (replays and golden vectors
// are bit-for-bit stable).
//
// Every marshalled message is framed with a 3-byte header:
//
//	offset 0: 0x00  — fixed lead byte
//	offset 1: 0xC6  — the wire magic
//	offset 2: 0x03  — the codec version
//
// Decoders accept exactly one version, so the version byte turns a format
// mismatch into a clear error instead of garbage. The TCP fabric sends the
// same three bytes as its connection preface.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Version is the wire-format version emitted by this build. Decoders accept
// exactly this version; bumping it is a format change and must come with new
// golden vectors. Version 2 added Extension.Flows; version 3 put every
// fabric message on the codec and made the formerly optional trailing fields
// (the TCP envelope's sampling flags and budget, the renewal batch's
// observability piggyback) plain fields.
const Version = 3

// Magic is the second frame-header byte.
const Magic = 0xC6

// Frame header bytes (see the package comment for the layout).
const (
	headerLen  = 3
	headerZero = 0x00
)

// Marshaler is implemented by message types that marshal themselves with the
// wire codec. Implementations append fields to e in declaration order and
// never fail: the encoder is infallible by construction.
type Marshaler interface {
	MarshalWire(e *Encoder)
}

// Unmarshaler is implemented by message types that unmarshal themselves with
// the wire codec. Implementations read fields from d in the order they were
// written and report d.Err(); the decoder carries a sticky error so field
// reads need no individual checks.
type Unmarshaler interface {
	UnmarshalWire(d *Decoder) error
}

// Header returns a fresh copy of the 3-byte frame header.
func Header() []byte { return []byte{headerZero, Magic, Version} }

// IsFrame reports whether data begins with a wire frame header (any
// version).
func IsFrame(data []byte) bool {
	return len(data) >= headerLen && data[0] == headerZero && data[1] == Magic
}

// Errors surfaced by Unmarshal and the Decoder.
var (
	// ErrNotFrame reports data without a wire frame header.
	ErrNotFrame = errors.New("wire: not a wire frame")
	// ErrTruncated reports a frame that ended mid-field.
	ErrTruncated = errors.New("wire: truncated")
	// ErrTrailing reports leftover bytes after the top-level message.
	ErrTrailing = errors.New("wire: trailing bytes after message")
)

// Marshal frames and encodes m: header then fields. The returned buffer is
// freshly allocated (safe to retain); the scratch encoder is pooled.
func Marshal(m Marshaler) []byte {
	e := GetEncoder()
	e.buf = append(e.buf, headerZero, Magic, Version)
	m.MarshalWire(e)
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	PutEncoder(e)
	return out
}

// Unmarshal decodes a framed message into u, rejecting bad headers,
// unsupported versions, truncation and trailing garbage.
func Unmarshal(data []byte, u Unmarshaler) error {
	if !IsFrame(data) {
		return ErrNotFrame
	}
	if data[2] != Version {
		return fmt.Errorf("wire: unsupported version %d (have %d)", data[2], Version)
	}
	d := Decoder{data: data[headerLen:]}
	if err := u.UnmarshalWire(&d); err != nil {
		return err
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("%w: %d of %d bytes consumed", ErrTrailing, d.off, len(d.data))
	}
	return nil
}

// Encoder appends wire-encoded fields to a byte buffer. The zero value is
// ready to use; hot paths take pooled encoders through GetEncoder.
type Encoder struct {
	buf []byte
}

// encPool recycles encoder scratch buffers across messages; oversized
// buffers (a huge extension push) are dropped rather than pinned forever.
var encPool = sync.Pool{New: func() any { return &Encoder{buf: make([]byte, 0, 512)} }}

// GetEncoder returns a reset pooled encoder.
func GetEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.buf = e.buf[:0]
	return e
}

// PutEncoder returns e to the pool. The caller must not touch e (or buffers
// obtained from Data) afterwards.
func PutEncoder(e *Encoder) {
	if cap(e.buf) > 1<<20 {
		return
	}
	encPool.Put(e)
}

// Reset empties the encoder, keeping its buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Data returns the encoded bytes. The slice aliases the encoder's buffer and
// is invalidated by further writes, Reset or PutEncoder.
func (e *Encoder) Data() []byte { return e.buf }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(u uint64) { e.buf = binary.AppendUvarint(e.buf, u) }

// Varint appends a zigzag-encoded signed varint (small magnitudes of either
// sign stay small on the wire).
func (e *Encoder) Varint(i int64) { e.buf = binary.AppendVarint(e.buf, i) }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends a length-prefixed byte slice; nil encodes as length 0.
func (e *Encoder) Bytes(b []byte) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Len appends a slice or map element count.
func (e *Encoder) Len(n int) { e.buf = binary.AppendUvarint(e.buf, uint64(n)) }

// StringSlice appends a count-prefixed slice of strings.
func (e *Encoder) StringSlice(ss []string) {
	e.Len(len(ss))
	for _, s := range ss {
		e.String(s)
	}
}

// Slice appends a count-prefixed slice of messages.
func Slice[T Marshaler](e *Encoder, s []T) {
	e.Len(len(s))
	for _, m := range s {
		m.MarshalWire(e)
	}
}

// StringMap appends a count-prefixed map in ascending key order, so equal
// maps always encode to equal bytes.
func (e *Encoder) StringMap(m map[string]string) {
	e.Len(len(m))
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.String(k)
		e.String(m[k])
	}
}

// Decoder reads wire-encoded fields from a byte buffer. The first malformed
// field sets a sticky error; every later read returns a zero value, so
// unmarshal code reads all fields straight through and checks Err once.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a decoder over data (no frame header expected — use
// Unmarshal for framed messages).
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// remaining reports the undecoded byte count.
func (d *Decoder) remaining() int { return len(d.data) - d.off }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("%w: bad uvarint at offset %d", ErrTruncated, d.off))
		return 0
	}
	d.off += n
	return u
}

// Varint reads a zigzag-encoded signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	i, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("%w: bad varint at offset %d", ErrTruncated, d.off))
		return 0
	}
	d.off += n
	return i
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail(fmt.Errorf("%w: byte at offset %d", ErrTruncated, d.off))
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

// Bool reads a bool, rejecting bytes other than 0 and 1 (a canonical
// encoding keeps round trips bit-identical).
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if d.err != nil {
		return false
	}
	if b > 1 {
		d.fail(fmt.Errorf("wire: bad bool byte %#x at offset %d", b, d.off-1))
		return false
	}
	return b == 1
}

// String reads a length-prefixed string. The bytes are copied, so the result
// does not alias the input buffer.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.remaining()) {
		d.fail(fmt.Errorf("%w: string of %d bytes with %d left", ErrTruncated, n, d.remaining()))
		return ""
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Bytes reads a length-prefixed byte slice (copied; length 0 decodes as
// nil).
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.remaining()) {
		d.fail(fmt.Errorf("%w: %d bytes with %d left", ErrTruncated, n, d.remaining()))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.data[d.off:])
	d.off += int(n)
	return out
}

// Len reads an element count, bounded by the remaining bytes: every element
// costs at least one byte, so a count beyond that is hostile input and an
// allocation of that size would be unbounded.
func (d *Decoder) Len() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.remaining()) {
		d.fail(fmt.Errorf("%w: count %d with %d bytes left", ErrTruncated, n, d.remaining()))
		return 0
	}
	return int(n)
}

// StringSlice reads a count-prefixed slice of strings (length 0 decodes as
// nil).
func (d *Decoder) StringSlice() []string {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.String())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// DecodeSlice reads a count-prefixed slice of messages, decoding each
// element through its pointer (length 0 decodes as nil).
func DecodeSlice[T any, PT interface {
	*T
	Unmarshaler
}](d *Decoder) []T {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		if err := PT(&out[i]).UnmarshalWire(d); err != nil {
			d.fail(err)
			return nil
		}
	}
	return out
}

// StringMap reads a count-prefixed string map, rejecting unsorted or
// duplicate keys so every valid encoding is canonical (length 0 decodes as
// nil).
func (d *Decoder) StringMap() map[string]string {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make(map[string]string, n)
	prev := ""
	for i := 0; i < n; i++ {
		k := d.String()
		v := d.String()
		if d.err != nil {
			return nil
		}
		if i > 0 && k <= prev {
			d.fail(fmt.Errorf("wire: map keys out of order (%q after %q)", k, prev))
			return nil
		}
		prev = k
		out[k] = v
	}
	return out
}
