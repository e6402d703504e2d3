package tiled

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/trace"
)

// This file is the one tile-contraction path: the paper's join +
// group-by + ⊕-aggregation pattern (matrix multiplication shape)
//
//	tiled(n,m)[ ((i,j), +/c) | ((i,k),a) <- A, ((kk,j),b) <- B,
//	            kk == k, let c = h(a,b), group by (i,j) ]
//
// with both of its translations: the Section 5.3 join + reduceByKey
// (and its groupByKey ablation) and the Section 5.4 group-by-join, a
// generalization of the SUMMA block algorithm. Every strategy shares
// the key projections, the tile kernel h, the tile pool and the kernel
// spans.

// Strategy selects the physical translation of a contraction.
type Strategy int

const (
	// GBJ is the Section 5.4 group-by-join: each A tile is replicated
	// across the output's column groups and each B tile across its row
	// groups, the copies are cogrouped on the output coordinate, and
	// matches are reduced locally. Each input tile crosses the shuffle
	// a bounded number of times and no partial tile is materialized.
	GBJ Strategy = iota
	// ReduceByKey is the Section 5.3 translation: join the tiles on the
	// contracted coordinate, multiply each matching pair into a partial
	// tile, and sum partials per output coordinate with a map-side
	// combining reduceByKey (Rule 13).
	ReduceByKey
	// GroupByKey is ReduceByKey without Rule 13: every partial tile
	// crosses the shuffle and is summed on the reduce side. It exists
	// to measure the rule.
	GroupByKey
)

// Contraction configures Contract. The zero value is the SUMMA
// group-by-join A*B with the blocked GEMM kernel, the full output grid
// and A's partition count.
type Contraction struct {
	Strategy Strategy
	// TransA contracts over A's rows (A^T*B) and TransB over B's
	// columns (A*B^T), without building the transpose. At most one may
	// be set.
	TransA, TransB bool
	// GridP x GridQ, when positive, coarsen the GBJ cogroup onto a
	// p x q processor grid instead of the full output-tile grid:
	// contiguous group ranges share a cell, so each A tile is
	// replicated GridQ times and each B tile GridP times, and a cell
	// emits one output tile per group pair it holds. The result is
	// bitwise identical for any grid. Zero means the full grid, the
	// exact SUMMA replication; the join strategies ignore the grid.
	GridP, GridQ int64
	// Parts is the shuffle's partition count; 0 uses A's.
	Parts int
	// Kernel, when set, accumulates h over one matching tile pair into
	// out. It runs serially and sees the tiles as stored: under TransA
	// it contracts x's rows, under TransB y's columns. Nil means the
	// budgeted blocked GEMM, whose spans report GFLOP/s.
	Kernel func(out, x, y *linalg.Dense)
}

// tileKernel accumulates one tile pair into out with a goroutine
// budget (Context.KernelBudget).
type tileKernel func(out, x, y *linalg.Dense, par int)

// Contract computes the contraction of A and B described by c: A*B by
// default, A^T*B or A*B^T with a transpose flag, and with c.Kernel in
// place of the tile product when set.
func Contract(a, b *Matrix, c Contraction) *Matrix {
	if c.TransA && c.TransB {
		panic("tiled: contraction with both TransA and TransB")
	}
	rows, ka := a.Rows, a.Cols
	if c.TransA {
		rows, ka = ka, rows
	}
	kb, cols := b.Rows, b.Cols
	if c.TransB {
		kb, cols = cols, kb
	}
	if ka != kb || a.N != b.N {
		panic("tiled: contraction shape mismatch")
	}
	if c.Parts <= 0 {
		c.Parts = a.Tiles.NumPartitions()
	}
	out := &Matrix{Rows: rows, Cols: cols, N: a.N}
	h, flops := c.kernel(a.N)
	switch c.Strategy {
	case GBJ:
		out.Tiles = groupByJoin(a, b, c, h, flops, out.BlockRows(), out.BlockCols())
	case ReduceByKey, GroupByKey:
		out.Tiles = joinContract(a, b, c, h, flops)
	default:
		panic(fmt.Sprintf("tiled: unknown contraction strategy %d", c.Strategy))
	}
	return out
}

// kernel resolves the tile kernel and its flop count per call (0 when
// unknown, as for interpreted kernels).
func (c Contraction) kernel(n int) (tileKernel, float64) {
	if h := c.Kernel; h != nil {
		return func(out, x, y *linalg.Dense, _ int) { h(out, x, y) }, 0
	}
	gemm := linalg.GemmBudget
	switch {
	case c.TransA:
		gemm = linalg.GemmTransABudget
	case c.TransB:
		gemm = linalg.GemmTransBBudget
	}
	return gemm, 2 * float64(n) * float64(n) * float64(n)
}

// split projects a tile coordinate to (surviving group, contracted
// index): (I, J) as stored, (J, I) when swap is set. A swaps under
// TransA; B, which contracts its rows, swaps unless TransB.
func split(t Coord, swap bool) (group, key int64) {
	if swap {
		return t.J, t.I
	}
	return t.I, t.J
}

// startKernelSpan starts a kernel span and its clock; both are zero
// when tracing is off.
func startKernelSpan(ctx *dataflow.Context, name string) (*trace.Span, time.Time) {
	sp := ctx.StartSpan(name)
	if sp == nil {
		return nil, time.Time{}
	}
	return sp, time.Now()
}

// endKernelSpan records a kernel span's achieved GFLOP/s (when flops
// is known) and whether its output tile came from the tile pool, then
// ends it; sac -analyze and the Perfetto export surface both per tile.
func endKernelSpan(sp *trace.Span, start time.Time, flops float64, poolHit bool) {
	if s := time.Since(start).Seconds(); flops > 0 && s > 0 {
		sp.SetAttr("GFLOP/s", math.Round(flops/s/1e7)/100)
	}
	if poolHit {
		sp.SetAttr("pool", "hit")
	} else {
		sp.SetAttr("pool", "miss")
	}
	sp.End()
}

// joinContract runs the ReduceByKey and GroupByKey strategies.
func joinContract(a, b *Matrix, c Contraction, h tileKernel, flops float64) *dataflow.Dataset[Block] {
	n := a.N
	byKey := func(m *Matrix, swap bool) *dataflow.Dataset[dataflow.Pair[int64, Block]] {
		return dataflow.Map(m.Tiles, func(t Block) dataflow.Pair[int64, Block] {
			_, k := split(t.Key, swap)
			return dataflow.KV(k, t)
		})
	}
	ctx := a.Tiles.Context()
	pool := ctx.TilePool()
	joined := dataflow.Join(byKey(a, c.TransA), byKey(b, !c.TransB), c.Parts)
	products := dataflow.Map(joined, func(p dataflow.Pair[int64, dataflow.JoinedPair[Block, Block]]) Block {
		at, bt := p.Value.Left, p.Value.Right
		i, _ := split(at.Key, c.TransA)
		j, _ := split(bt.Key, !c.TransB)
		sp, start := startKernelSpan(ctx, "kernel: join-partial")
		out, hit := pool.TryGet(n, n)
		h(out, at.Value, bt.Value, ctx.KernelBudget())
		if sp != nil {
			sp.SetAttr("tile", fmt.Sprintf("(%d,%d)", i, j))
			sp.SetAttr("k", p.Key)
			endKernelSpan(sp, start, flops, hit)
		}
		return dataflow.KV(Coord{I: i, J: j}, out)
	})
	if c.Strategy == ReduceByKey {
		// The combiner consumes its second argument exactly once
		// (map-side combine and the one-time reduce fold), so the dead
		// partial goes back to the pool; the accumulator escapes as
		// the result tile.
		return dataflow.ReduceByKey(products, func(x, y *linalg.Dense) *linalg.Dense {
			linalg.AddInPlace(x, y)
			pool.Put(y)
			return x
		}, c.Parts)
	}
	// The grouped tiles live in materialized shuffle buckets that are
	// re-served to every later action, so they cannot be recycled here;
	// only the accumulator comes from the pool.
	grouped := dataflow.GroupByKey(products, c.Parts)
	return dataflow.Map(grouped, func(g dataflow.Pair[Coord, []*linalg.Dense]) Block {
		sp, start := startKernelSpan(ctx, "kernel: group-sum")
		acc, hit := pool.TryGet(n, n)
		for _, t := range g.Value {
			linalg.AddInPlace(acc, t)
		}
		if sp != nil {
			sp.SetAttr("tile", fmt.Sprintf("(%d,%d)", g.Key.I, g.Key.J))
			sp.SetAttr("partials", len(g.Value))
			endKernelSpan(sp, start, 0, hit)
		}
		return dataflow.KV(g.Key, acc)
	})
}

// keyedTile tags a tile with its join key and its group — the group
// travels with the tile so a coarsened grid cell holding several
// groups can still route each match to the right output tile.
type keyedTile struct {
	K    int64
	G    int64
	Tile *linalg.Dense
}

// NumBytes reports the tile payload for shuffle accounting.
func (k keyedTile) NumBytes() int64 { return 16 + k.Tile.NumBytes() }

// groupByJoin runs the GBJ strategy on the grid of c (see GridP) over
// the output's groupsY x groupsX tiles.
func groupByJoin(a, b *Matrix, c Contraction, h tileKernel, flops float64, groupsY, groupsX int64) *dataflow.Dataset[Block] {
	n := a.N
	gridP, gridQ := c.GridP, c.GridQ
	if gridP <= 0 || gridP > groupsY {
		gridP = groupsY
	}
	if gridQ <= 0 || gridQ > groupsX {
		gridQ = groupsX
	}
	// Contiguous group ranges share a cell; with the full grid this is
	// the identity, reproducing the exact per-group routing. Each A
	// tile goes to the gridQ cells of its row, each B tile to the gridP
	// cells of its column.
	as := replicate(a, c.TransA, gridQ, func(g, jj int64) Coord { return Coord{I: g * gridP / groupsY, J: jj} })
	bs := replicate(b, !c.TransB, gridP, func(g, ii int64) Coord { return Coord{I: ii, J: g * gridQ / groupsX} })

	ctx := a.Tiles.Context()
	pool := ctx.TilePool()
	cg := dataflow.CoGroup(as, bs, c.Parts)
	return dataflow.FlatMap(cg, func(g dataflow.Pair[Coord, dataflow.CoGrouped[keyedTile, keyedTile]]) []Block {
		sp, start := startKernelSpan(ctx, "kernel: gbj-cell")
		par := ctx.KernelBudget()
		// Hash the B side by join key. Each side's distinct groups, in
		// first-seen order, span the cell's output tiles (one tile per
		// group pair, exactly the cogroup coordinate under the full
		// grid). The output tiles escape into the result dataset, so
		// they come from the pool but are never Put back here;
		// recycling happens when the result is drained (Matrix.Recycle).
		right := make(map[int64][]keyedTile, len(g.Value.Right))
		for _, kt := range g.Value.Right {
			right[kt.K] = append(right[kt.K], kt)
		}
		lgroups, lpos := groupIndex(g.Value.Left)
		rgroups, rpos := groupIndex(g.Value.Right)
		out := make([]Block, 0, len(lgroups)*len(rgroups))
		hits := 0
		for _, gx := range lgroups {
			for _, gy := range rgroups {
				t, hit := pool.TryGet(n, n)
				if hit {
					hits++
				}
				out = append(out, dataflow.KV(Coord{I: gx, J: gy}, t))
			}
		}
		matches := 0
		for _, at := range g.Value.Left {
			for _, bt := range right[at.K] {
				h(out[lpos[at.G]*len(rgroups)+rpos[bt.G]].Value, at.Tile, bt.Tile, par)
				matches++
			}
		}
		if sp != nil {
			sp.SetAttr("cell", fmt.Sprintf("(%d,%d)", g.Key.I, g.Key.J))
			sp.SetAttr("left", len(g.Value.Left))
			sp.SetAttr("right", len(g.Value.Right))
			sp.SetAttr("tiles", len(out))
			sp.SetAttr("matches", matches)
			endKernelSpan(sp, start, flops*float64(matches), hits == len(out) && len(out) > 0)
		}
		return out
	})
}

// replicate sends each tile of m, tagged with its group and join key
// (split by swap), to the cells cell(group, 0..copies-1).
func replicate(m *Matrix, swap bool, copies int64, cell func(g, i int64) Coord) *dataflow.Dataset[dataflow.Pair[Coord, keyedTile]] {
	return dataflow.FlatMap(m.Tiles, func(t Block) []dataflow.Pair[Coord, keyedTile] {
		g, k := split(t.Key, swap)
		out := make([]dataflow.Pair[Coord, keyedTile], 0, copies)
		for i := int64(0); i < copies; i++ {
			out = append(out, dataflow.KV(cell(g, i), keyedTile{K: k, G: g, Tile: t.Value}))
		}
		return out
	})
}

// groupIndex numbers the distinct groups of tiles in first-seen order.
func groupIndex(tiles []keyedTile) (groups []int64, pos map[int64]int) {
	pos = make(map[int64]int)
	for _, t := range tiles {
		if _, ok := pos[t.G]; !ok {
			pos[t.G] = len(groups)
			groups = append(groups, t.G)
		}
	}
	return groups, pos
}
