package tiled

import (
	"testing"

	"repro/internal/linalg"
)

// TestMultiplyGBJTunedGridEquality: the cost model may coarsen the SUMMA
// accumulation grid (several output blocks per grid cell) to cut tile
// replication. Any grid shape — full, coarse, degenerate 1x1, or the
// 0,0,0 "engine defaults" — must produce bitwise-identical results: the
// grid only changes placement, never the set of (A tile, B tile)
// matches accumulated into each output block.
func TestMultiplyGBJTunedGridEquality(t *testing.T) {
	ctx := tctx()
	da := linalg.RandDense(24, 20, -1, 1, 21)
	db := linalg.RandDense(20, 16, -1, 1, 22)
	a := FromDense(ctx, da, 4, 3)
	b := FromDense(ctx, db, 4, 3)
	want := Contract(a, b, Contraction{}).ToDense()
	if !want.EqualApprox(linalg.Mul(da, db), 1e-9) {
		t.Fatal("reference GBJ multiply is itself wrong")
	}
	grids := []struct {
		p, q  int64
		parts int
	}{
		{0, 0, 0}, // engine defaults = full grid
		{1, 1, 0}, // everything in one cell
		{2, 3, 0},
		{3, 2, 5},  // coarse grid + explicit partition count
		{6, 4, 11}, // full output grid (6x4 blocks), odd parts
		{9, 9, 0},  // grid larger than the output: must clamp, not break
	}
	for _, g := range grids {
		got := Contract(a, b, Contraction{GridP: g.p, GridQ: g.q, Parts: g.parts}).ToDense()
		if !got.Equal(want) {
			t.Fatalf("grid %dx%d parts %d: result differs from canonical GBJ (max diff %g)",
				g.p, g.q, g.parts, got.MaxAbsDiff(want))
		}
	}
}
