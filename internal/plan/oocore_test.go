package plan_test

// Out-of-core coverage for the full query pipeline: a compiled SAC
// comprehension whose working set is several times the session's
// memory budget must still produce the in-memory answer, with the
// spill subsystem visibly engaged. This exercises plan execution on
// top of the budgeted engine (plan_test -> core -> plan keeps the
// import legal).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/opt"
)

// outOfCoreSession opens a session of the given tile size and memory
// budget, closed (and checked) when the test ends.
func outOfCoreSession(t *testing.T, tile int, budget int64, opts opt.Options) *core.Session {
	t.Helper()
	s := core.NewSession(core.Config{
		Parallelism:   8,
		Partitions:    16,
		TileSize:      tile,
		MemoryBudget:  budget,
		Optimizations: opts,
	})
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// planKind compiles src on s and fails unless it plans as kind.
func planKind(t *testing.T, s *core.Session, src, kind string) {
	t.Helper()
	q, err := s.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Strategy().Kind(); got != kind {
		t.Fatalf("planned as %s, want %s", got, kind)
	}
}

func TestOutOfCoreQueryMatmul(t *testing.T) {
	const budget = 2 << 20
	const n = 512 // 3 * 512^2 * 8B = 6MiB working set, 3x the budget
	s := outOfCoreSession(t, 128, budget, opt.Options{})
	da := linalg.RandDense(n, n, 0, 1, 41)
	db := linalg.RandDense(n, n, 0, 1, 42)
	s.RegisterDense("A", da)
	s.RegisterDense("B", db)
	m, err := s.QueryMatrix(`tiled(512,512)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a*b, group by (i,j) ]`)
	if err != nil {
		t.Fatal(err)
	}
	if !m.ToDense().EqualApprox(linalg.Mul(da, db), 1e-8) {
		t.Fatal("out-of-core query matmul diverges from local result")
	}
	snap := s.Metrics()
	if snap.SpilledBytes == 0 || snap.SpillFiles == 0 {
		t.Fatalf("query ran over budget without spilling: %+v", snap)
	}
	if snap.MemoryPeak > 2*int64(budget) {
		t.Fatalf("tracked peak %d exceeds budget %d + slack", snap.MemoryPeak, budget)
	}
}

// TestOutOfCoreQueryMatmulNoGBJ runs the same multiply with the
// group-by-join rewrite disabled, forcing the join + group-by plan
// through the budgeted shuffle instead of SUMMA.
func TestOutOfCoreQueryMatmulNoGBJ(t *testing.T) {
	const budget = 2 << 20
	const n = 512
	s := outOfCoreSession(t, 128, budget, opt.Options{DisableGBJ: true})
	da := linalg.RandDense(n, n, 0, 1, 43)
	db := linalg.RandDense(n, n, 0, 1, 44)
	s.RegisterDense("A", da)
	s.RegisterDense("B", db)
	m, err := s.QueryMatrix(`tiled(512,512)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a*b, group by (i,j) ]`)
	if err != nil {
		t.Fatal(err)
	}
	if !m.ToDense().EqualApprox(linalg.Mul(da, db), 1e-8) {
		t.Fatal("out-of-core join+group-by matmul diverges from local result")
	}
	if snap := s.Metrics(); snap.SpilledBytes == 0 || snap.MergePasses == 0 {
		t.Fatalf("join+group-by query over budget did not spill: %+v", snap)
	}
}

// TestOutOfCoreQueryGenericContraction runs a contraction whose kernel
// h(a,b) = a*b + a is interpreted, under the group-by-join and under
// join + reduceByKey, whose combiner recycles dead partials through the
// tile pool while the shuffle spills. The interpreted kernel is slow,
// so the matrices are small and the budget is cut to match.
func TestOutOfCoreQueryGenericContraction(t *testing.T) {
	const budget = 128 << 10
	const n = 128 // 3 * 128^2 * 8B = 384KiB working set, 3x the budget
	da := linalg.RandDense(n, n, 0, 1, 45)
	db := linalg.RandDense(n, n, 0, 1, 46)
	want := linalg.Mul(da, db)
	rows := da.RowSums()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want.Add(i, j, rows.Data[i])
		}
	}
	const src = `tiled(128,128)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a*b + a, group by (i,j) ]`
	for _, tc := range []struct {
		kind string
		opts opt.Options
	}{{"group-by-join", opt.Options{}}, {"join-reduce", opt.Options{DisableGBJ: true}}} {
		t.Run(tc.kind, func(t *testing.T) {
			s := outOfCoreSession(t, 32, budget, tc.opts)
			s.RegisterDense("A", da)
			s.RegisterDense("B", db)
			planKind(t, s, src, tc.kind)
			m, err := s.QueryMatrix(src)
			if err != nil {
				t.Fatal(err)
			}
			if !m.ToDense().EqualApprox(want, 1e-8) {
				t.Fatal("out-of-core generic contraction diverges from local result")
			}
			if snap := s.Metrics(); snap.SpilledBytes == 0 {
				t.Fatalf("generic contraction over budget did not spill: %+v", snap)
			}
		})
	}
}

// TestOutOfCoreQueryRotation runs a Rule 19 rotation, whose replicated
// tiles (tiled.TaggedTile shuffle rows) spill through their registered
// codec.
func TestOutOfCoreQueryRotation(t *testing.T) {
	const budget = 2 << 20
	const n = 512
	s := outOfCoreSession(t, 128, budget, opt.Options{})
	da := linalg.RandDense(n, n, 0, 1, 47)
	s.RegisterDense("A", da)
	const src = `tiled(512,512)[ (((i+1) % 512, j), a) | ((i,j),a) <- A ]`
	planKind(t, s, src, "tile-replicate")
	m, err := s.QueryMatrix(src)
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want.Set((i+1)%n, j, da.At(i, j))
		}
	}
	if !m.ToDense().Equal(want) {
		t.Fatal("out-of-core rotation diverges from local result")
	}
	if snap := s.Metrics(); snap.SpilledBytes == 0 {
		t.Fatalf("rotation over budget did not spill: %+v", snap)
	}
}
