package tiled

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/trace"
)

var contractStrategies = []struct {
	name string
	s    Strategy
}{{"gbj", GBJ}, {"reduceByKey", ReduceByKey}, {"groupByKey", GroupByKey}}

var contractOrientations = []struct {
	name           string
	transA, transB bool
}{{"plain", false, false}, {"transA", true, false}, {"transB", false, true}}

// stored returns how an operand of logical value d is held: d itself,
// or d^T when the contraction reads it transposed.
func stored(d *linalg.Dense, trans bool) *linalg.Dense {
	if trans {
		return d.Transpose()
	}
	return d
}

// plusLeftKernel is the interpreted h(a,b) = a*b + a over tiles as
// stored, so sum_k h(a_ik, b_kj) = (AB)_ij + rowsum(A)_i: a custom
// kernel whose result no GEMM produces.
func plusLeftKernel(transA, transB bool) func(out, x, y *linalg.Dense) {
	at := func(m *linalg.Dense, i, j int, trans bool) float64 {
		if trans {
			return m.At(j, i)
		}
		return m.At(i, j)
	}
	return func(out, x, y *linalg.Dense) {
		for i := 0; i < out.Rows; i++ {
			for k := 0; k < x.Rows; k++ {
				a := at(x, i, k, transA)
				for j := 0; j < out.Cols; j++ {
					out.Add(i, j, a*at(y, k, j, transB)+a)
				}
			}
		}
	}
}

// TestContract runs every strategy × orientation × kernel against a
// dense reference, on shapes that fill whole tiles and shapes that pad
// them. GBJ additionally runs a set of SUMMA grids: the cost model may
// coarsen the grid (several output tiles per cell) to cut replication,
// and any grid — full, coarse, one cell, larger than the output, with
// or without a partition count — must give a bitwise-identical result,
// since the grid changes placement, never the (A tile, B tile) matches
// summed into an output tile.
func TestContract(t *testing.T) {
	ctx := tctx()
	shapes := []struct {
		name    string
		r, k, c int
	}{{"whole", 24, 20, 16}, {"padded", 23, 19, 15}}
	grids := []struct {
		p, q  int64
		parts int
	}{
		{0, 0, 0}, // engine defaults = full grid
		{1, 1, 0}, // everything in one cell
		{2, 3, 0},
		{3, 2, 5},  // coarse grid + explicit partition count
		{6, 4, 11}, // full output grid (6x4 tiles), odd parts
		{9, 9, 0},  // grid larger than the output: must clamp, not break
	}
	for _, sh := range shapes {
		opA := linalg.RandDense(sh.r, sh.k, -1, 1, 21)
		opB := linalg.RandDense(sh.k, sh.c, -1, 1, 22)
		gemm := linalg.Mul(opA, opB)
		custom := gemm.Clone()
		rows := opA.RowSums()
		for i := 0; i < sh.r; i++ {
			for j := 0; j < sh.c; j++ {
				custom.Add(i, j, rows.Data[i])
			}
		}
		for _, st := range contractStrategies {
			for _, orient := range contractOrientations {
				a := FromDense(ctx, stored(opA, orient.transA), 4, 3)
				b := FromDense(ctx, stored(opB, orient.transB), 4, 3)
				for _, kn := range []string{"gemm", "custom"} {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", sh.name, st.name, orient.name, kn), func(t *testing.T) {
						c := Contraction{Strategy: st.s, TransA: orient.transA, TransB: orient.transB}
						want := gemm
						if kn == "custom" {
							c.Kernel = plusLeftKernel(orient.transA, orient.transB)
							want = custom
						}
						got := Contract(a, b, c)
						if got.Rows != int64(sh.r) || got.Cols != int64(sh.c) {
							t.Fatalf("dims %dx%d, want %dx%d", got.Rows, got.Cols, sh.r, sh.c)
						}
						full := got.ToDense()
						if !full.EqualApprox(want, 1e-9) {
							t.Fatalf("diverges from the dense reference by %g", full.MaxAbsDiff(want))
						}
						if st.s != GBJ {
							return
						}
						for _, g := range grids {
							c.GridP, c.GridQ, c.Parts = g.p, g.q, g.parts
							if got := Contract(a, b, c).ToDense(); !got.Equal(full) {
								t.Fatalf("grid %dx%d parts %d: result differs from the full grid (max diff %g)",
									g.p, g.q, g.parts, got.MaxAbsDiff(full))
							}
						}
					})
				}
			}
		}
	}
}

func TestContractRejectsBothTransposes(t *testing.T) {
	ctx := tctx()
	a := FromDense(ctx, linalg.NewDense(4, 4), 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Contract(a, a, Contraction{TransA: true, TransB: true})
}

// TestContractKernelSpans: every strategy emits kernel spans that
// record tile-pool use, GEMM spans report GFLOP/s, and the
// reduceByKey combiner hands dead partials back to the pool whatever
// the kernel.
func TestContractKernelSpans(t *testing.T) {
	da := linalg.RandDense(16, 16, 0, 1, 31)
	db := linalg.RandDense(16, 16, 0, 1, 32)
	for _, st := range contractStrategies {
		for _, custom := range []bool{false, true} {
			ctx := dataflow.NewLocalContext()
			tr := trace.New()
			root := tr.Start(nil, "query")
			ctx.SetTracer(tr)
			ctx.SetTraceRoot(root)
			c := Contraction{Strategy: st.s}
			if custom {
				c.Kernel = func(out, x, y *linalg.Dense) { linalg.Gemm(out, x, y) }
			}
			Contract(FromDense(ctx, da, 4, 2), FromDense(ctx, db, 4, 2), c).ToDense()
			ctx.SetTracer(nil)
			root.End()

			kernels, gflops := 0, 0
			for _, sp := range tr.Spans() {
				if !strings.HasPrefix(sp.Name, "kernel: ") {
					continue
				}
				kernels++
				pool := false
				for _, at := range sp.Attrs() {
					switch at.Key {
					case "pool":
						pool = true
					case "GFLOP/s":
						gflops++
					}
				}
				if !pool {
					t.Errorf("%s custom=%v: span %q has no pool attribute", st.name, custom, sp.Name)
				}
			}
			if kernels == 0 {
				t.Errorf("%s custom=%v: no kernel spans", st.name, custom)
			}
			if custom && gflops > 0 {
				t.Errorf("%s: custom kernel reported GFLOP/s", st.name)
			}
			if !custom && gflops == 0 {
				t.Errorf("%s: GEMM spans report no GFLOP/s", st.name)
			}
			if st.s == ReduceByKey && ctx.TilePool().Stats().Returns == 0 {
				t.Errorf("custom=%v: reduceByKey returned no partial to the pool", custom)
			}
		}
	}
}
