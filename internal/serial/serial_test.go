package serial

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripPrimitives(t *testing.T) {
	b := NewBuffer(64)
	if b.U8(0xAB) != 0xAB || b.U32(0xDEADBEEF) != 0xDEADBEEF || b.U64(0x0123456789ABCDEF) != 0x0123456789ABCDEF ||
		b.I64(-42) != -42 || b.F64(3.14159) != 3.14159 {
		t.Fatal("Buffer did not return the values it wrote")
	}
	b.Bytes([]byte{1, 2, 3})

	r := NewReader(b.BytesOut())
	// The Reader ignores the value it is given and returns what it reads.
	if v := r.U8(0); v != 0xAB {
		t.Fatalf("U8 = %x", v)
	}
	if v := r.U32(0); v != 0xDEADBEEF {
		t.Fatalf("U32 = %x", v)
	}
	if v := r.U64(0); v != 0x0123456789ABCDEF {
		t.Fatalf("U64 = %x", v)
	}
	if v := r.I64(0); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.F64(0); v != 3.14159 {
		t.Fatalf("F64 = %v", v)
	}
	bs := r.Bytes()
	if len(bs) != 3 || bs[0] != 1 || bs[2] != 3 {
		t.Fatalf("Bytes = %v", bs)
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestRoundTripF64s(t *testing.T) {
	b := NewBuffer(0)
	in := []float64{1.5, -2.25, math.Pi, 0, math.Inf(1)}
	b.F64s(in, len(in))
	b.Ints([]int{-1, 7}, 2)
	r := NewReader(b.BytesOut())
	out := r.F64s(nil, len(in))
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], in[i])
		}
	}
	if ints := r.Ints(nil, 2); len(ints) != 2 || ints[0] != -1 || ints[1] != 7 {
		t.Fatalf("Ints = %v", ints)
	}
}

func TestF64sNilWithLogicalLen(t *testing.T) {
	// NOALLOC path: nil data with declared logical length encodes zeros.
	b := NewBuffer(0)
	b.F64s(nil, 4)
	r := NewReader(b.BytesOut())
	out := r.F64s(nil, 4)
	if len(out) != 4 || r.Remaining() != 0 {
		t.Fatalf("len = %d, remaining %d, want 4 and 0", len(out), r.Remaining())
	}
	for _, v := range out {
		if v != 0 {
			t.Fatalf("nil-backed F64s decoded non-zero %v", v)
		}
	}
}

// counterMatchesBuffer is the core NOALLOC invariant: for any sequence of
// stream calls, Counter.Size() must equal Buffer.Len(), and a Reader must
// read back what the Buffer was given.
func TestCounterMatchesBufferProperty(t *testing.T) {
	prop := func(u8 uint8, u32 uint32, u64 uint64, i64 int64, f float64, fs []float64, is []int, nilRaw, skipRaw uint8) bool {
		skip, nilLen := int(skipRaw%32), int(nilRaw%32)
		// state passes every value through s and reports whether s
		// returned each one unchanged.
		state := func(s Stream) bool {
			ok := s.U8(u8) == u8 && s.U32(u32) == u32 && s.U64(u64) == u64 && s.I64(i64) == i64 &&
				math.Float64bits(s.F64(f)) == math.Float64bits(f)
			gotF, gotI := s.F64s(fs, len(fs)), s.Ints(is, len(is))
			ok = ok && len(gotF) == len(fs) && len(gotI) == len(is)
			for i := range fs {
				ok = ok && math.Float64bits(gotF[i]) == math.Float64bits(fs[i])
			}
			for i := range is {
				ok = ok && gotI[i] == is[i]
			}
			s.F64s(nil, nilLen)
			s.Skip(skip)
			return ok
		}
		var c Counter
		b := NewBuffer(0)
		if !state(&c) || !state(b) || c.Size() != int64(b.Len()) {
			return false
		}
		r := NewReader(b.BytesOut())
		return state(r) && r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterNilF64sMatchesBuffer(t *testing.T) {
	prop := func(nRaw uint16) bool {
		n := int(nRaw % 2048)
		var c Counter
		b := NewBuffer(0)
		c.F64s(nil, n)
		b.F64s(nil, n)
		c.Ints(nil, n)
		b.Ints(nil, n)
		return c.Size() == int64(b.Len()) && c.Size() == int64(16*n)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

type testObj struct {
	id   uint64
	rows int
	data []float64 // rows values; nil in NOALLOC
}

func (o *testObj) Wire(s Stream) {
	o.id = s.U64(o.id)
	o.rows = int(s.U64(uint64(o.rows)))
	o.data = s.F64s(o.data, o.rows)
}

func TestMarshalerRoundTrip(t *testing.T) {
	in := &testObj{id: 99, data: []float64{1, 2, 3}, rows: 3}
	b := NewBuffer(0)
	in.Wire(b)
	var out testObj
	r := NewReader(b.BytesOut())
	out.Wire(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if out.id != 99 || out.rows != 3 || len(out.data) != 3 || out.data[2] != 3 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestSizeOf(t *testing.T) {
	obj := &testObj{id: 1, data: []float64{1, 2}, rows: 2}
	want := int64(8 + 8 + 16)
	if got := SizeOf(obj); got != want {
		t.Fatalf("SizeOf = %d, want %d", got, want)
	}
}

func TestSizeOfNoAllocObject(t *testing.T) {
	// A NOALLOC object declares 1e6 floats without a backing array; its
	// wire size must reflect the logical payload.
	obj := &testObj{id: 1, data: nil, rows: 1_000_000}
	want := int64(8 + 8 + 8*1_000_000)
	if got := SizeOf(obj); got != want {
		t.Fatalf("SizeOf = %d, want %d", got, want)
	}
}

func TestSizeOfAllocationFree(t *testing.T) {
	obj := &testObj{id: 1, data: nil, rows: 1 << 20}
	allocs := testing.AllocsPerRun(100, func() {
		_ = SizeOf(obj)
	})
	if allocs > 0 {
		t.Fatalf("SizeOf allocated %v times per run, want 0", allocs)
	}
}

func TestShortBufferErrors(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U64(0)
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("err = %v, want ErrShortBuffer", r.Err())
	}
	// Sticky: further reads keep failing without panicking.
	_ = r.Bytes()
	if f := r.F64s(nil, 0); f != nil {
		t.Fatal("F64s after an error returned a slice")
	}
	r.Failf("later failure")
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatal("error not sticky")
	}
}

func TestCorruptLengthPrefix(t *testing.T) {
	b := NewBuffer(0)
	b.U64(1 << 60) // absurd length prefix
	b.U64(0)
	r := NewReader(b.BytesOut())
	if p := r.Bytes(); p != nil || r.Err() == nil {
		t.Fatal("corrupt bytes prefix accepted")
	}
	// A count read from the wire is checked against the bytes remaining
	// before anything is allocated.
	for _, n := range []int{1 << 60, -1, 2} {
		r := NewReader(b.BytesOut())
		r.U64(0)
		if f := r.F64s(nil, n); f != nil || !errors.Is(r.Err(), ErrShortBuffer) {
			t.Fatalf("f64 count %d accepted", n)
		}
		r = NewReader(b.BytesOut())
		r.U64(0)
		if p := r.Ints(nil, n); p != nil || !errors.Is(r.Err(), ErrShortBuffer) {
			t.Fatalf("int count %d accepted", n)
		}
	}
}

func TestFailfKeepsFirstError(t *testing.T) {
	r := NewReader([]byte{7, 8})
	if v := r.U8(0); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	r.Failf("bad tag %d", 7)
	r.Failf("second failure")
	if r.Err() == nil || r.Err().Error() != "bad tag 7" {
		t.Fatalf("err = %v", r.Err())
	}
	if v := r.U8(0); v != 0 || r.Remaining() != 1 {
		t.Fatalf("read %d after a failure, %d bytes remaining", v, r.Remaining())
	}
	// Encoders ignore Failf: their checks hold by construction.
	var c Counter
	c.Failf("ignored")
	b := NewBuffer(0)
	b.Failf("ignored")
}

func TestBufferReset(t *testing.T) {
	b := NewBuffer(8)
	b.U64(5)
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("after Reset len = %d", b.Len())
	}
	b.U8(1)
	if b.Len() != 1 {
		t.Fatalf("after reuse len = %d", b.Len())
	}
}

func TestCounterReset(t *testing.T) {
	var c Counter
	c.U64(1)
	c.Reset()
	if c.Size() != 0 {
		t.Fatalf("after Reset size = %d", c.Size())
	}
}

func TestSkip(t *testing.T) {
	b := NewBuffer(0)
	b.Skip(5)
	b.U8(7)
	r := NewReader(b.BytesOut())
	r.Skip(5)
	if v := r.U8(0); v != 7 {
		t.Fatalf("after Skip got %d", v)
	}
	var c Counter
	c.Skip(5)
	c.Skip(-3) // negative skip must not reduce the count
	if c.Size() != 5 {
		t.Fatalf("counter skip = %d", c.Size())
	}
}

func TestBytesRoundTripProperty(t *testing.T) {
	prop := func(p []byte) bool {
		b := NewBuffer(0)
		b.Bytes(p)
		r := NewReader(b.BytesOut())
		return bytes.Equal(r.Bytes(), p) && r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSizeOf(b *testing.B) {
	obj := &testObj{id: 1, data: nil, rows: 65536}
	for i := 0; i < b.N; i++ {
		_ = SizeOf(obj)
	}
}

func BenchmarkMarshal64K(b *testing.B) {
	data := make([]float64, 65536)
	obj := &testObj{id: 1, data: data, rows: len(data)}
	buf := NewBuffer(65536*8 + 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		obj.Wire(buf)
	}
	b.SetBytes(int64(buf.Len()))
}
