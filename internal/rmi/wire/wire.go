// Package wire holds the binary primitives of the RMI codec — the
// zero-allocation replacement for reflection-driven gob (ROADMAP
// "Zero-alloc wire path").
//
// Every RMI in the system — invokes, retries, replica propagation,
// authority-renewal batches, WAL-bound state captures — used to funnel
// through encoding/gob with a fresh encoder and bytes.Buffer per
// message.  Package rmi now derives one layout per type by reflection
// (the paper's Java-serialization role) and writes it with this
// package's primitives, protocol structs and user types alike:
//
//   - Append functions: each appends one value onto a caller-supplied
//     buffer and returns it.  Encoding is append-only — no intermediate
//     writer, one allocation (or zero, with a pooled buffer) per
//     message.
//   - Dec: a bounds-checked cursor with a sticky error.  Truncated
//     input yields ErrTruncated, structurally invalid input yields
//     ErrCorrupt — typed errors, never a panic, the same contract the
//     WAL's CRC framing enforces (FuzzWireDecode proves it).
//   - Pool: sync.Pool buffer arenas sized by observed high-water mark,
//     for transports and envelopes that can scope a buffer's lifetime.
//
// The format: unsigned integers are uvarints, signed integers are
// zigzag varints, durations are zigzag varints of nanoseconds, floats
// are fixed 8-byte little-endian IEEE 754 bit patterns, strings and
// byte slices are length-prefixed, bools are one byte (0/1), slices
// are a count followed by the elements.  A protocol struct's body
// begins with a one-byte struct tag from the registry in DESIGN.md
// §15; a layout change retires the tag and allocates a new one (tags
// are never reused with a different layout).
//
// Determinism: an encoding is a pure function of the value — no maps
// are iterated unsorted, no time or randomness is consulted — so the
// byte-identical-snapshot contract (DESIGN.md §9) survives the codec
// swap byte for byte.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"
)

// Typed decode failures.  Every malformed input maps onto one of these
// two — callers (and the fuzzer) can rely on errors.Is and on decode
// never panicking.
var (
	// ErrTruncated reports input that ended before the value did.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrCorrupt reports structurally invalid input: a wrong struct
	// tag, an over-long varint, an impossible count, trailing bytes.
	ErrCorrupt = errors.New("wire: corrupt input")
)

// ---------------------------------------------------------------------
// Append primitives (encode side)

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendVarint appends v zigzag-encoded.
func AppendVarint(buf []byte, v int64) []byte {
	return binary.AppendUvarint(buf, uint64(v)<<1^uint64(v>>63))
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendDuration appends d as a zigzag varint of nanoseconds.
func AppendDuration(buf []byte, d time.Duration) []byte {
	return AppendVarint(buf, int64(d))
}

// AppendFloat64 appends the fixed 8-byte little-endian IEEE 754 bit
// pattern of f (varints would mangle the entropy of a float).
func AppendFloat64(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// AppendFloat32 appends the fixed 4-byte little-endian IEEE 754 bit
// pattern of f.
func AppendFloat32(buf []byte, f float32) []byte {
	return binary.LittleEndian.AppendUint32(buf, math.Float32bits(f))
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends a length-prefixed byte slice; nil and empty both
// encode as length 0.
func AppendBytes(buf []byte, b []byte) []byte {
	buf = AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendStrings appends a count-prefixed string slice.
func AppendStrings(buf []byte, ss []string) []byte {
	buf = AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = AppendString(buf, s)
	}
	return buf
}

// ---------------------------------------------------------------------
// Dec (decode side)

// Dec is a bounds-checked decode cursor over one buffer.  Getters
// return the zero value once an error is recorded; the first failure
// sticks, so straight-line decoders read every field and check
// Finish() once at the end.  Dec is a value type — declare it on the
// stack and pass &d down.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a cursor over b.
func NewDec(b []byte) Dec { return Dec{buf: b} }

// Err returns the sticky error, nil while the decode is healthy.
func (d *Dec) Err() error { return d.err }

// Remaining reports the unconsumed byte count.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Fail records err (the first one wins).
func (d *Dec) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Finish returns the sticky error, or ErrCorrupt when the decode
// succeeded without consuming the whole buffer — a well-formed
// encoding is exact.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.Fail(ErrTruncated)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Uvarint reads an unsigned LEB128 integer.  A one-byte value, the
// common case of every length and count, is read inline.
func (d *Dec) Uvarint() uint64 {
	if d.err == nil && d.off < len(d.buf) && d.buf[d.off] < 0x80 {
		v := d.buf[d.off]
		d.off++
		return uint64(v)
	}
	return d.uvarint()
}

// uvarint is Uvarint past its one-byte case.
func (d *Dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n > 0:
		d.off += n
		return v
	case n == 0:
		d.Fail(ErrTruncated)
	default:
		d.Fail(fmt.Errorf("%w: uvarint overflow", ErrCorrupt))
	}
	return 0
}

// Varint reads a zigzag varint.
func (d *Dec) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads one byte as a bool; values other than 0 and 1 are
// ErrCorrupt.
func (d *Dec) Bool() bool {
	b := d.Byte()
	if d.err == nil && b > 1 {
		d.Fail(fmt.Errorf("%w: bool byte 0x%02x", ErrCorrupt, b))
	}
	return b == 1
}

// Duration reads a zigzag varint of nanoseconds.
func (d *Dec) Duration() time.Duration { return time.Duration(d.Varint()) }

// Float64 reads a fixed 8-byte little-endian IEEE 754 value.
func (d *Dec) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.Fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// Float32 reads a fixed 4-byte little-endian IEEE 754 value.
func (d *Dec) Float32() float32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.buf) {
		d.Fail(ErrTruncated)
		return 0
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(d.buf[d.off:]))
	d.off += 4
	return v
}

// length reads a length/count prefix and bounds it by what could
// possibly remain (each counted unit costs at least one byte), so a
// corrupted prefix can never provoke a giant allocation.
func (d *Dec) length() int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("%w: length %d exceeds %d remaining bytes", ErrTruncated, v, d.Remaining()))
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.length()
	if d.err != nil || n == 0 {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Strs cuts the strings of one container, a map's keys and values or a
// string slice, from one exactly sized allocation.  The decoder reads
// the container twice.  The pre-scan runs on a copy of its cursor
// (c := *d), hands each string to Measure and ends with Alloc; the real
// pass then reads each string with d.StringIn.  A pre-scan that failed
// leaves s off, and the real pass fails at the same byte with the same
// error.  Fewer than two strings longer than one byte also leave s off,
// because Go allocates nothing for an empty or a one-byte string: off,
// StringIn is String.
//
// strings.Builder never rewrites the bytes it has handed out, and after
// Alloc's Grow the real pass's writes fit, so each string is a view of
// the one backing without unsafe.  Any string cut from it keeps the
// whole backing alive: one surviving key pins the string bytes of the
// container it came in, no more.
type Strs struct {
	b            strings.Builder
	total, multi int // bytes measured; strings measured longer than one byte
}

// Measure reads one string off the pre-scan cursor c and counts it.
func (s *Strs) Measure(c *Dec) {
	n := len(c.Bytes())
	s.total += n
	if n > 1 {
		s.multi++
	}
}

// Alloc ends the pre-scan on c: unless it failed, or fewer than two
// strings need their own allocation, it makes the one backing that every
// measured string fits.
func (s *Strs) Alloc(c *Dec) {
	if c.err == nil && s.multi > 1 {
		s.b.Grow(s.total)
	}
}

// StringIn reads a length-prefixed string as a view of s's backing, or
// as String does while s is off.
func (d *Dec) StringIn(s *Strs) string {
	if s.b.Cap() == 0 {
		return d.String()
	}
	b := d.Bytes()
	if len(b) == 0 {
		return ""
	}
	start := s.b.Len()
	s.b.Write(b)
	return s.b.String()[start:]
}

// Bytes reads a length-prefixed byte slice.  The result aliases the
// input buffer (zero copy); length 0 decodes as nil.  Callers that
// outlive the buffer must copy.
func (d *Dec) Bytes() []byte {
	n := d.length()
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// Raw reads the next n bytes as they lie, with no length prefix: a
// fixed-width vector whose count the caller has read, or a span the
// caller has checked on a copy of the cursor.  The result aliases the
// input buffer.  Fewer than n remaining bytes fail d as ErrTruncated,
// which allocates nothing.
func (d *Dec) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.Fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// BytesCopy reads a length-prefixed byte slice into fresh memory.
func (d *Dec) BytesCopy() []byte {
	b := d.Bytes()
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Strings reads a count-prefixed string slice, its strings cut from one
// allocation (Strs); count 0 decodes as nil.
func (d *Dec) Strings() []string {
	n := d.length()
	if d.err != nil || n == 0 {
		return nil
	}
	var s Strs
	c := *d
	for range n {
		s.Measure(&c)
	}
	s.Alloc(&c)
	out := make([]string, n)
	for i := range out {
		out[i] = d.StringIn(&s)
	}
	if d.err != nil {
		return nil
	}
	return out
}
