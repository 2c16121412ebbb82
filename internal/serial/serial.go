// Package serial implements the DPS data-object serialization layer.
//
// DPS data objects cross node boundaries as binary records. Each object
// states its wire layout once, in its Wire method, against a Stream, and
// that one method drives three back ends:
//
//   - Buffer: a real encoder used by the TCP transport of the parallel
//     runtime (internal/parallel).
//   - Counter: the paper's "modified serializer" (§4) that only *counts*
//     bytes using the size description of the contained data structures,
//     performing no memory copies or allocations. This is what makes the
//     NOALLOC simulation mode possible: the simulated network layer only
//     needs sizes, never bytes.
//   - Reader: the decoder that rebuilds an object on the receiving node.
//
// Every Stream method takes a field's value and returns one: the encoders
// return what they were given, the Reader what it read. An object assigns
// each returned value back to its own field, so writing, counting and
// reading cannot drift apart.
//
// Layout is little-endian and fixed width for numeric types; a slice is
// preceded by whatever count field its object states for it. There is no
// reflection.
package serial

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Object is implemented by every data object that can cross a node
// boundary. Wire states the object's full wire layout on s, passing each
// field to s and assigning the returned value back to it. Decoding starts
// from the object's zero value.
type Object interface {
	Wire(s Stream)
}

// Stream is the surface shared by Buffer, Counter and Reader.
type Stream interface {
	U8(v uint8) uint8
	U32(v uint32) uint32
	U64(v uint64) uint64
	I64(v int64) int64
	F64(v float64) float64
	// F64s states n float64s, without a length prefix: the first n of v,
	// padded with zeros (all zeros when v is nil). This is how NOALLOC
	// data objects declare payload size without owning a backing array.
	// The Reader returns the n values it reads in a new slice.
	F64s(v []float64, n int) []float64
	// Ints states n ints as int64s, like F64s.
	Ints(v []int, n int) []int
	// Skip states n raw bytes of opaque payload (zeros on a real encoder).
	Skip(n int)
	// Failf records a validation failure, such as a wrong tag or shape, in
	// a Reader. The encoders ignore it: an object's checks of the values it
	// reads back hold whenever it is the one being written.
	Failf(format string, args ...any)
}

// counterPool avoids one heap allocation per SizeOf call: the Counter
// escapes through the Stream interface, so a stack instance would be
// heap-allocated every time.
var counterPool = sync.Pool{New: func() any { return new(Counter) }}

// SizeOf returns the wire size of o in bytes without allocating or
// copying: it runs Wire against a Counter.
func SizeOf(o Object) int64 {
	c := counterPool.Get().(*Counter)
	c.Reset()
	o.Wire(c)
	n := c.Size()
	counterPool.Put(c)
	return n
}

// --- Counter ---

// Counter counts bytes. The zero value is ready to use.
type Counter struct{ n int64 }

// Size returns the number of bytes counted so far.
func (c *Counter) Size() int64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

func (c *Counter) U8(v uint8) uint8                  { c.n++; return v }
func (c *Counter) U32(v uint32) uint32               { c.n += 4; return v }
func (c *Counter) U64(v uint64) uint64               { c.n += 8; return v }
func (c *Counter) I64(v int64) int64                 { c.n += 8; return v }
func (c *Counter) F64(v float64) float64             { c.n += 8; return v }
func (c *Counter) F64s(v []float64, n int) []float64 { c.Skip(8 * n); return v }
func (c *Counter) Ints(v []int, n int) []int         { c.Skip(8 * n); return v }
func (c *Counter) Failf(string, ...any)              {}
func (c *Counter) Skip(n int) {
	if n > 0 {
		c.n += int64(n)
	}
}

// --- Buffer ---

// Buffer is a real encoder accumulating bytes in memory. The zero value is
// an empty buffer ready for use.
type Buffer struct{ buf []byte }

// NewBuffer returns a Buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{buf: make([]byte, 0, capacity)}
}

// BytesOut returns the encoded bytes. The slice aliases the buffer.
func (b *Buffer) BytesOut() []byte { return b.buf }

// Len returns the number of encoded bytes.
func (b *Buffer) Len() int { return len(b.buf) }

// Reset truncates the buffer, retaining capacity.
func (b *Buffer) Reset() { b.buf = b.buf[:0] }

func (b *Buffer) U8(v uint8) uint8 { b.buf = append(b.buf, v); return v }
func (b *Buffer) U32(v uint32) uint32 {
	b.buf = binary.LittleEndian.AppendUint32(b.buf, v)
	return v
}
func (b *Buffer) U64(v uint64) uint64 {
	b.buf = binary.LittleEndian.AppendUint64(b.buf, v)
	return v
}
func (b *Buffer) I64(v int64) int64                 { b.U64(uint64(v)); return v }
func (b *Buffer) F64(v float64) float64             { b.U64(math.Float64bits(v)); return v }
func (b *Buffer) F64s(v []float64, n int) []float64 { return putWords(b, v, n, math.Float64bits) }
func (b *Buffer) Ints(v []int, n int) []int {
	return putWords(b, v, n, func(x int) uint64 { return uint64(x) })
}
func (b *Buffer) Skip(n int)           { b.buf = append(b.buf, make([]byte, max(n, 0))...) }
func (b *Buffer) Failf(string, ...any) {}

// putWords writes the first n of v as 8-byte words, padded with zeros.
func putWords[T any](b *Buffer, v []T, n int, bits func(T) uint64) []T {
	m := min(max(n, 0), len(v))
	for _, x := range v[:m] {
		b.U64(bits(x))
	}
	b.Skip(8 * (n - m))
	return v
}

// Bytes writes p with a u64 length prefix (the parallel runtime's frame
// envelope; no data object states raw bytes).
func (b *Buffer) Bytes(p []byte) {
	b.U64(uint64(len(p)))
	b.buf = append(b.buf, p...)
}

// --- Reader ---

// ErrShortBuffer is returned when a decode runs past the end of input.
var ErrShortBuffer = errors.New("serial: short buffer")

// Reader decodes values written by Buffer. Decoding errors are sticky:
// after the first failure every subsequent read returns zero values and
// Err reports the failure. Every length is checked against the bytes
// remaining before anything is allocated.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Failf records a validation failure unless an earlier error stands.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take consumes size·n bytes.
func (r *Reader) take(n, size int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining()/size {
		r.err = fmt.Errorf("%w: need %d×%d bytes at offset %d of %d", ErrShortBuffer, n, size, r.off, len(r.buf))
		return nil
	}
	p := r.buf[r.off : r.off+n*size]
	r.off += n * size
	return p
}

// fixed reads one n-byte value, or zeros after an error.
func (r *Reader) fixed(n int) []byte {
	if p := r.take(1, n); p != nil {
		return p
	}
	return make([]byte, n)
}

func (r *Reader) U8(uint8) uint8                    { return r.fixed(1)[0] }
func (r *Reader) U32(uint32) uint32                 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64(uint64) uint64                 { return binary.LittleEndian.Uint64(r.fixed(8)) }
func (r *Reader) I64(int64) int64                   { return int64(r.U64(0)) }
func (r *Reader) F64(float64) float64               { return math.Float64frombits(r.U64(0)) }
func (r *Reader) F64s(_ []float64, n int) []float64 { return words(r, n, math.Float64frombits) }
func (r *Reader) Ints(_ []int, n int) []int {
	return words(r, n, func(u uint64) int { return int(int64(u)) })
}

// words reads n 8-byte words into a new slice, allocating it only after
// n is checked against the bytes remaining.
func words[T any](r *Reader, n int, from func(uint64) T) []T {
	p := r.take(n, 8)
	if r.err != nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = from(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

// Skip discards n bytes.
func (r *Reader) Skip(n int) { r.take(n, 1) }

// Bytes reads a u64-length-prefixed byte slice written by Buffer.Bytes
// into a copy.
func (r *Reader) Bytes() []byte {
	return append([]byte(nil), r.take(int(r.U64(0)), 1)...)
}
