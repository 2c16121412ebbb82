package lu

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"dpsim/internal/linalg"
	"dpsim/internal/rng"
	"dpsim/internal/serial"
	"dpsim/internal/stencil"
	"dpsim/internal/transport"
)

// roundTrip encodes obj through the codec and decodes it back.
func roundTrip(t *testing.T, c *transport.Codec, obj serial.Object) serial.Object {
	t.Helper()
	body, err := c.Encode(obj)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// luCodec carries the LU and the stencil objects.
func luCodec() *transport.Codec {
	c := transport.NewCodec()
	RegisterCodec(c)
	stencil.RegisterCodec(c)
	return c
}

func randMat(r, cols int, src *rng.Source) *linalg.Mat {
	return linalg.Random(r, cols, src)
}

func TestTrsmReqRoundTrip(t *testing.T) {
	src := rng.New(1)
	c := luCodec()
	in := &TrsmReq{Iter: 3, Block: 7, R: 5, L11: randMat(5, 5, src), Piv: []int{1, 0, 2, 4, 3}}
	out := roundTrip(t, c, in).(*TrsmReq)
	if out.Iter != 3 || out.Block != 7 || out.R != 5 {
		t.Fatalf("header: %+v", out)
	}
	if !out.L11.Equalish(in.L11, 0) {
		t.Fatal("L11 mismatch")
	}
	for i := range in.Piv {
		if out.Piv[i] != in.Piv[i] {
			t.Fatalf("piv mismatch at %d", i)
		}
	}
}

func TestAllObjectsRoundTripProperty(t *testing.T) {
	c := luCodec()
	prop := func(seed uint64, iterRaw, blockRaw uint8, rRaw uint8) bool {
		src := rng.New(seed)
		iter, block := int(iterRaw%16), int(blockRaw%16)
		r := int(rRaw%6)*2 + 2 // even, 2..12
		s := r / 2
		objs := []serial.Object{
			&Seed{},
			&TrsmReq{Iter: iter, Block: block, R: r, L11: randMat(r, r, src), Piv: src.Perm(r)},
			&TrsmDone{Iter: iter, Block: block, R: r, T12: randMat(r, r, src)},
			&MultReq{Iter: iter, Tile: 1, Block: block, R: r, L21: randMat(r, r, src), T12: randMat(r, r, src)},
			&MultRes{Iter: iter, Tile: 2, Block: block, R: r, Prod: randMat(r, r, src)},
			&TileDone{Iter: iter, Tile: 3, Block: block},
			&FlipReq{Iter: iter, Block: block, R: r, Piv: src.Perm(r)},
			&FlipDone{Iter: iter, Block: block},
			&PMReq{Iter: iter, Tile: 1, Block: block, Row: 0, Col: 1, S: s, R: r,
				ARow: randMat(s, r, src), BCol: randMat(r, s, src)},
			&PMRes{Iter: iter, Tile: 1, Block: block, Row: 1, Col: 0, S: s, Prod: randMat(s, s, src)},
		}
		for _, in := range objs {
			body, err := c.Encode(in)
			if err != nil {
				return false
			}
			out, err := c.Decode(body)
			if err != nil {
				return false
			}
			// Re-encoding the decoded object must give the same bytes
			// (a canonical-form check).
			again, err := c.Encode(out)
			if err != nil || !bytes.Equal(again, body) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCorruptFails(t *testing.T) {
	c := luCodec()
	body, err := c.Encode(&MultReq{R: 4, L21: linalg.NewMat(4, 4), T12: linalg.NewMat(4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-payload.
	if _, err := c.Decode(body[:len(body)/2]); err == nil {
		t.Fatal("truncated MultReq accepted")
	}
	// Wrong tag for the payload shape.
	bad := append([]byte(nil), body...)
	bad[0] = 6 // FlipDone tag with MultReq payload: header tag mismatch
	if _, err := c.Decode(bad); err == nil {
		t.Fatal("tag/payload mismatch accepted")
	}
}

func TestBadSeedMagic(t *testing.T) {
	c := luCodec()
	b := serial.NewBuffer(8)
	b.U32(1) // Seed codec tag
	b.U32(0xBAD)
	if _, err := c.Decode(b.BytesOut()); err == nil {
		t.Fatal("bad seed magic accepted")
	}
}

func TestMatrixPayloadShapeMismatch(t *testing.T) {
	// A matrix payload whose data length disagrees with its dimensions
	// must be rejected.
	b := serial.NewBuffer(64)
	b.U32(3) // TrsmDone codec tag
	b.U8(2)  // wire tag
	b.U32(0)
	b.U32(0)
	b.U32(0)
	b.U32(5) // rows=5
	b.U32(5) // cols=5
	b.U64(2) // but only 2 values
	b.F64s([]float64{1, 2}, 2)
	c := luCodec()
	if _, err := c.Decode(b.BytesOut()); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// TestHugePivotCountBoundedAllocation decodes 21-byte FlipReq frames that
// declare far more pivots than they hold: each must fail before the pivot
// vector is allocated.
func TestHugePivotCountBoundedAllocation(t *testing.T) {
	c := luCodec()
	for _, n := range []uint32{50_000_000, 1<<32 - 1} {
		b := serial.NewBuffer(21)
		b.U32(8) // FlipReq codec tag
		b.U8(6)  // wire tag
		b.U32(0)
		b.U32(0)
		b.U32(0)
		b.U32(n) // pivot count, with no pivots following
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.Decode(b.BytesOut())
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("FlipReq with %d pivots in 21 bytes accepted", n)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Fatalf("decoding %d pivots allocated %d bytes", n, grew)
		}
	}
}

// FuzzCodecDecode feeds arbitrary frames to the LU and stencil codecs. A
// frame decodes to an object or an error, never a panic, and an object
// re-encodes to exactly the frame it came from. The seed corpus holds one
// valid frame per object type.
func FuzzCodecDecode(f *testing.F) {
	c := luCodec()
	f.Fuzz(func(t *testing.T, frame []byte) {
		obj, err := c.Decode(frame)
		if err != nil {
			return
		}
		again, err := c.Encode(obj)
		if err != nil {
			t.Fatalf("decoded %T does not encode: %v", obj, err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("decoded %T re-encodes to\n%x\nnot\n%x", obj, again, frame)
		}
	})
}
