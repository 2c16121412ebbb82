package lu

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dpsim/internal/dps"
	"dpsim/internal/linalg"
	"dpsim/internal/rng"
	"dpsim/internal/serial"
	"dpsim/internal/stencil"
)

var update = flag.Bool("update", false, "rewrite testdata/wire.golden from the current objects")

type wireCase struct {
	name string
	obj  dps.DataObject
}

// wireCases lists every LU and stencil data object, allocated and NOALLOC,
// with fixed contents.
func wireCases() []wireCase {
	src := rng.New(7)
	mat := func(r, c int) *linalg.Mat { return linalg.Random(r, c, src) }
	const r, s, n = 6, 3, 5
	full := mat(r+2, r+2)
	return []wireCase{
		{"Seed", &Seed{}},
		{"TrsmReq", &TrsmReq{Iter: 3, Block: 7, R: r, L11: mat(r, r), Piv: src.Perm(r)}},
		{"TrsmReq/noalloc", &TrsmReq{Iter: 3, Block: 7, R: r}},
		{"TrsmDone", &TrsmDone{Iter: 2, Block: 5, R: r, T12: mat(r, r)}},
		{"TrsmDone/noalloc", &TrsmDone{Iter: 2, Block: 5, R: r}},
		{"TrsmDone/view", &TrsmDone{Iter: 2, Block: 5, R: r, T12: full.View(1, 2, r, r)}},
		{"MultReq", &MultReq{Iter: 1, Tile: 4, Block: 6, R: r, L21: mat(r, r), T12: mat(r, r)}},
		{"MultReq/noalloc", &MultReq{Iter: 1, Tile: 4, Block: 6, R: r}},
		{"MultRes", &MultRes{Iter: 4, Tile: 2, Block: 3, R: r, Prod: mat(r, r)}},
		{"MultRes/noalloc", &MultRes{Iter: 4, Tile: 2, Block: 3, R: r}},
		{"TileDone", &TileDone{Iter: 5, Tile: 1, Block: 2}},
		{"FlipReq", &FlipReq{Iter: 6, Block: 1, R: r, Piv: src.Perm(r)}},
		{"FlipReq/noalloc", &FlipReq{Iter: 6, Block: 1, R: r}},
		{"FlipDone", &FlipDone{Iter: 7, Block: 4}},
		{"PMReq", &PMReq{Iter: 1, Tile: 2, Block: 3, Row: 1, Col: 0, S: s, R: r, ARow: mat(s, r), BCol: mat(r, s)}},
		{"PMReq/noalloc", &PMReq{Iter: 1, Tile: 2, Block: 3, Row: 1, Col: 0, S: s, R: r}},
		{"PMRes", &PMRes{Iter: 2, Tile: 3, Block: 4, Row: 0, Col: 1, S: s, Prod: mat(s, s)}},
		{"PMRes/noalloc", &PMRes{Iter: 2, Tile: 3, Block: 4, Row: 0, Col: 1, S: s}},
		{"stencil.IterSeed", &stencil.IterSeed{Iter: 9}},
		{"stencil.BandIter", &stencil.BandIter{Iter: 9, Band: 2}},
		{"stencil.HaloRequest", &stencil.HaloRequest{Iter: 9, For: 2, From: 3}},
		{"stencil.HaloRow", &stencil.HaloRow{Iter: 9, For: 2, From: 3, N: n, Row: mat(1, n).A}},
		{"stencil.HaloRow/noalloc", &stencil.HaloRow{Iter: 9, For: 2, From: 3, N: n}},
		{"stencil.BandResidual", &stencil.BandResidual{Iter: 9, Band: 2, Sum: 0.125}},
	}
}

// wireBytes encodes obj with the real serializer.
func wireBytes(obj dps.DataObject) []byte {
	b := serial.NewBuffer(0)
	obj.Wire(b)
	return b.BytesOut()
}

// TestWireGolden pins every object's encoded bytes (by SHA-256) and its
// counted size: NOALLOC sizes drive simulated transfer times, and the real
// runtime's peers must agree on the bytes. Every object, NOALLOC ones
// too, also decodes back to the same bytes.
func TestWireGolden(t *testing.T) {
	var got strings.Builder
	codec := luCodec()
	for _, c := range wireCases() {
		p := wireBytes(c.obj)
		if size := serial.SizeOf(c.obj); size != int64(len(p)) {
			t.Errorf("%s: counted %d bytes, encoded %d", c.name, size, len(p))
		}
		if back := wireBytes(roundTrip(t, codec, c.obj)); !bytes.Equal(back, p) {
			t.Errorf("%s: decoded object encodes to %x, not %x", c.name, back, p)
		}
		fmt.Fprintf(&got, "%s %d %x\n", c.name, len(p), sha256.Sum256(p))
	}
	const path = "testdata/wire.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("wire bytes changed:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
