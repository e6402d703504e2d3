package main

// The local-fig4 workload: the paper's Fig. 4 queries through
// core.Session.Compile + Compiled.ExecuteAndForce on persisted inputs,
// tile 100, 8 partitions, local parallelism 2. Its traced run ends with
// a spill probe that runs the add query under a 64 MiB memory budget.

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/ml"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/tiled"
	"repro/internal/trace"
)

const (
	fig4Tile        = 100
	fig4Parts       = 8
	fig4Parallelism = 2
	nAdd            = 3200     // Fig. 4.A
	nMul            = 1600     // Fig. 4.B
	nFactor         = 1600     // Fig. 4.C, R is nFactor x nFactor
	kFactor         = 200      // Fig. 4.C, P and Q are nFactor x kFactor
	nContract       = 100      // one 100^3 tile contraction, about the GBJ query's time
	spillBudget     = 64 << 20 // the spill probe's memory budget
	fig4SetupReps   = 5        // builds behind setup_s; a build takes 2-3 s
	// relTol bounds |got-want| / max|want|: fold order may change, so
	// results are compared with a tolerance, not bit for bit.
	relTol = 1e-9
)

const (
	srcAdd      = "tiled(nadd,nadd)[ ((i,j), a+b) | ((i,j),a) <- Aadd, ((ii,jj),b) <- Badd, ii == i, jj == j ]"
	srcMul      = "tiled(nmul,nmul)[ ((i,j), +/v) | ((i,k),a) <- Amul, ((kk,j),b) <- Bmul, kk == k, let v = a*b, group by (i,j) ]"
	srcContract = "tiled(ncon,ncon)[ ((i,j), +/v) | ((i,k),a) <- Acon, ((kk,j),b) <- Bcon, kk == k, let v = a*b+a, group by (i,j) ]"
)

// fig4Query is one query of the round: its per-query metric name and
// how to run it.
type fig4Query struct {
	metric string
	run    func(f *fig4, tr *trace.Tracer, parent *trace.Span) error
}

var localFig4Queries = []fig4Query{
	{"add_ms", (*fig4).add},
	{"matmul_gbj_ms", (*fig4).mulGBJ},
	{"matmul_joingb_ms", (*fig4).mulJoinGB},
	{"factor_step_ms", (*fig4).factorStep},
	{"contract_generic_ms", (*fig4).contract},
}

// fullRound reports whether queries is local-fig4's whole round, not
// the spill probe's add: the contraction and the GD step need inputs of
// their own.
func fullRound(queries []fig4Query) bool { return len(queries) == len(localFig4Queries) }

// fig4Refs are the dense references, computed once per run.
type fig4Refs struct {
	add, mul, contract *linalg.Dense
	p, q               *linalg.Dense // one GD step
	r                  *linalg.COO   // the factorization input
}

// fig4 is one built instance of the workload.
type fig4 struct {
	seed    int64
	queries []fig4Query
	refs    *fig4Refs
	// s owns every input and runs the default plans; sj plans with
	// DisableGBJ (the paper's join + group-by "SAC" line) over the same
	// matrices, so its stages run on s's engine under s's budget.
	s, sj   *core.Session
	r, p, q *tiled.Matrix
	amul    *tiled.Matrix
	// gbjRecords is the shuffled record count of the last GBJ query.
	gbjRecords int64
	spillDir   string
}

func runLocalFig4(cfg runConfig) (*report, error) {
	refs := buildFig4Refs(cfg.seed)
	rep := newReport()
	setups, f, err := timedSetups(setupReps(cfg, fig4SetupReps), func() (*fig4, error) {
		return newFig4(cfg.seed, localFig4Queries, refs, 0, rep)
	})
	if err != nil {
		return nil, err
	}
	rep.setups = setups

	poolHits, poolMisses := 0.0, 0.0
	seqLoop(cfg, rep, func(traced bool) (time.Duration, error) {
		d, delta, _, err := f.measuredOp(traced, rep)
		if err != nil || !cfg.traced {
			return d, err
		}
		sampleEngine(rep, delta)
		poolHits += float64(delta.PoolHits)
		poolMisses += float64(delta.PoolMisses)
		rep.sample("tiled.gbj_replication", float64(f.gbjRecords)/float64(2*tilesOf(nMul)))
		return d, nil
	})
	if !cfg.traced {
		f.close()
		return rep, nil
	}
	rep.layer["dataflow.tile_pool_hit_rate"] = ratio(poolHits, poolHits+poolMisses)
	err = f.probes(rep)
	f.close()
	if err == nil {
		err = spillProbe(cfg.seed, refs, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// measuredOp runs one op and returns its time, the engine counters it
// moved and, when traced, its span sums. Per-query times are recorded
// from untraced ops only.
func (f *fig4) measuredOp(traced bool, rep *report) (time.Duration, dataflow.MetricsSnapshot, spanSums, error) {
	var tr *trace.Tracer
	var root *trace.Span
	perQuery := rep
	if traced {
		tr = trace.New()
		root = tr.Start(nil, "bench: op")
		perQuery = nil
	}
	before := f.s.Metrics()
	start := time.Now()
	err := f.op(tr, root, perQuery)
	d := time.Since(start)
	root.End()
	if err != nil {
		return d, dataflow.MetricsSnapshot{}, spanSums{}, err
	}
	var spans spanSums
	if traced {
		spans = sampleSpans(rep, tr)
	}
	return d, f.s.Metrics().Sub(before), spans, nil
}

// spillProbe measures the spill-to-disk and memory layers for
// local-fig4, which never spills: the add query (n=3200) under a 64 MiB
// budget, once untraced for the counters and once traced for the spill
// and merge span time.
func spillProbe(seed int64, refs *fig4Refs, rep *report) error {
	f, err := newFig4(seed, localFig4Queries[:1], refs, spillBudget, rep)
	if err != nil {
		return err
	}
	defer f.close()
	for _, traced := range []bool{false, true} {
		rep.attempted++
		_, delta, spans, err := f.measuredOp(traced, nil)
		if err != nil {
			rep.fail(fmt.Errorf("spill probe: %w", err))
			continue
		}
		if traced {
			rep.layer["spill.span_ms"] = ms(spans.total["spill"])
		} else {
			sampleSpill(rep, delta)
		}
	}
	return nil
}

// buildFig4Refs computes the dense references from the same generators
// the sessions use.
func buildFig4Refs(seed int64) *fig4Refs {
	gen := core.NewSession(core.Config{TileSize: fig4Tile, Partitions: fig4Parts, Parallelism: fig4Parallelism})
	defer gen.Close()
	dense := func(name string, rows, cols int64, i int) *linalg.Dense {
		return gen.RegisterRandMatrix(name, rows, cols, 0, 10, seedFor(seed, i)).ToDense()
	}
	refs := &fig4Refs{}
	refs.add = linalg.AddInPlace(dense("a", nAdd, nAdd, 0), dense("b", nAdd, nAdd, 1))
	a, b := dense("a", nMul, nMul, 2), dense("b", nMul, nMul, 3)
	refs.mul = linalg.NewDense(nMul, nMul)
	linalg.Gemm(refs.mul, a, b)
	a, b = dense("a", nContract, nContract, 4), dense("b", nContract, nContract, 5)
	refs.contract = linalg.NewDense(nContract, nContract)
	linalg.Gemm(refs.contract, a, b)
	rows := a.RowSums()
	for i := 0; i < nContract; i++ {
		for j := 0; j < nContract; j++ {
			refs.contract.Add(i, j, rows.Data[i])
		}
	}
	refs.r = linalg.RandSparseCOO(nFactor, nFactor, 0.1, 5, seedFor(seed, 6))
	p := gen.RegisterRandMatrix("p", nFactor, kFactor, 0, 1, seedFor(seed, 7)).ToDense()
	q := gen.RegisterRandMatrix("q", nFactor, kFactor, 0, 1, seedFor(seed, 8)).ToDense()
	refs.p, refs.q = ml.StepDense(refs.r.ToDense(), p, q, ml.PaperConfig())
	return refs
}

// newFig4 builds the sessions, persists and materializes the inputs,
// and runs one verified warm-up op.
func newFig4(seed int64, queries []fig4Query, refs *fig4Refs, budget int64, rep *report) (*fig4, error) {
	conf := core.Config{TileSize: fig4Tile, Partitions: fig4Parts, Parallelism: fig4Parallelism, MemoryBudget: budget}
	f := &fig4{seed: seed, queries: queries, refs: refs}
	if budget > 0 {
		// An explicit directory, removed by close, so no run file
		// outlives the run.
		dir, err := os.MkdirTemp("", "perfbench-spill-")
		if err != nil {
			return nil, err
		}
		conf.SpillDir, f.spillDir = dir, dir
	}
	f.s = core.NewSession(conf)
	conf.Optimizations = opt.Options{DisableGBJ: true}
	f.sj = core.NewSession(conf)
	persist := func(m *tiled.Matrix) *tiled.Matrix {
		m.Persist()
		dataflow.Count(m.Tiles)
		return m
	}
	bind := func(name string, n int64, i int, joinGB bool) *tiled.Matrix {
		m := persist(f.s.RegisterRandMatrix(name, n, n, 0, 10, seedFor(seed, i)))
		if joinGB {
			f.sj.RegisterMatrix(name, m)
		}
		return m
	}
	bind("Aadd", nAdd, 0, false)
	bind("Badd", nAdd, 1, false)
	f.amul = bind("Amul", nMul, 2, true)
	bind("Bmul", nMul, 3, true)
	f.s.RegisterScalar("nadd", int64(nAdd))
	f.s.RegisterScalar("nmul", int64(nMul))
	f.sj.RegisterScalar("nmul", int64(nMul))
	if fullRound(queries) {
		bind("Acon", nContract, 4, false)
		bind("Bcon", nContract, 5, false)
		f.s.RegisterScalar("ncon", int64(nContract))
		f.r = persist(f.s.RegisterSparse("R", refs.r))
		f.p = persist(f.s.RegisterRandMatrix("P", nFactor, kFactor, 0, 1, seedFor(seed, 7)))
		f.q = persist(f.s.RegisterRandMatrix("Q", nFactor, kFactor, 0, 1, seedFor(seed, 8)))
	}
	rep.attempted++
	if err := f.op(nil, nil, nil); err != nil {
		rep.fail(fmt.Errorf("warm-up: %w", err))
	}
	return f, nil
}

func (f *fig4) close() {
	f.sj.Close()
	f.s.Close()
	if f.spillDir != "" {
		_ = os.RemoveAll(f.spillDir) // scratch space; nothing to report if it lingers
	}
}

// op runs one round of the workload's queries, recording into rep (when
// not nil) each query's time from compilation until its result is
// forced and verified.
func (f *fig4) op(tr *trace.Tracer, root *trace.Span, rep *report) error {
	for _, q := range f.queries {
		span := root.StartChild("bench: " + q.metric)
		start := time.Now()
		err := q.run(f, tr, span)
		d := time.Since(start)
		span.End()
		if err != nil {
			return fmt.Errorf("%s: %w", q.metric, err)
		}
		rep.sample(q.metric, ms(d))
	}
	return nil
}

func (f *fig4) add(tr *trace.Tracer, span *trace.Span) error {
	return f.query(f.s, srcAdd, f.refs.add, tr, span)
}

func (f *fig4) mulGBJ(tr *trace.Tracer, span *trace.Span) error {
	before := f.s.Metrics().ShuffledRecords
	err := f.query(f.s, srcMul, f.refs.mul, tr, span)
	f.gbjRecords = f.s.Metrics().ShuffledRecords - before
	return err
}

func (f *fig4) mulJoinGB(tr *trace.Tracer, span *trace.Span) error {
	return f.query(f.sj, srcMul, f.refs.mul, tr, span)
}

func (f *fig4) contract(tr *trace.Tracer, span *trace.Span) error {
	return f.query(f.s, srcContract, f.refs.contract, tr, span)
}

func (f *fig4) factorStep(tr *trace.Tracer, span *trace.Span) error {
	eng := f.s.Engine()
	if tr != nil {
		eng.SetTracer(tr)
		eng.SetTraceRoot(span)
		defer eng.SetTracer(nil)
	}
	np, nq := ml.StepTiled(f.r, f.p, f.q, ml.PaperConfig())
	for _, m := range []*tiled.Matrix{np, nq} {
		m.Persist()
		dataflow.Count(m.Tiles)
	}
	defer np.Unpersist()
	defer nq.Unpersist()
	if err := checkMatrix(np, f.refs.p); err != nil {
		return fmt.Errorf("P: %w", err)
	}
	if err := checkMatrix(nq, f.refs.q); err != nil {
		return fmt.Errorf("Q: %w", err)
	}
	return nil
}

// query compiles src on sess, executes and forces it (traced under
// span when tr is set), checks the matrix against want, and drops it.
func (f *fig4) query(sess *core.Session, src string, want *linalg.Dense, tr *trace.Tracer, span *trace.Span) error {
	q, err := sess.Compile(src)
	if err != nil {
		return err
	}
	res, err := execute(q, f.s.Engine(), tr, span)
	if err != nil {
		return err
	}
	if res.Matrix == nil {
		return fmt.Errorf("got a %s, want a matrix", res.Kind())
	}
	defer res.Matrix.Unpersist()
	return checkMatrix(res.Matrix, want)
}

// execute runs q and forces its result. When traced, it uses the
// program's ExecuteInSpan; the tracer also goes on eng, the engine that
// owns the inputs, because a plan compiled on the join + group-by
// planner session runs its stages there.
func execute(q *plan.Compiled, eng *dataflow.Context, tr *trace.Tracer, span *trace.Span) (*plan.Result, error) {
	if tr == nil {
		return q.ExecuteAndForce()
	}
	eng.SetTracer(tr)
	eng.SetTraceRoot(span)
	defer eng.SetTracer(nil)
	return q.ExecuteInSpan(tr, span)
}

// checkMatrix compares every element of m with want, within relTol of
// want's largest magnitude, reading the result's cached tiles in place.
func checkMatrix(m *tiled.Matrix, want *linalg.Dense) error {
	if m.Rows != int64(want.Rows) || m.Cols != int64(want.Cols) {
		return fmt.Errorf("shape %dx%d, want %dx%d", m.Rows, m.Cols, want.Rows, want.Cols)
	}
	scale := 0.0
	for _, v := range want.Data {
		scale = math.Max(scale, math.Abs(v))
	}
	tol := relTol * math.Max(scale, 1)
	var seen int64
	for _, b := range dataflow.Collect(m.Tiles) {
		r0, c0 := int(b.Key.I)*m.N, int(b.Key.J)*m.N
		for i := 0; i < b.Value.Rows && r0+i < want.Rows; i++ {
			for j := 0; j < b.Value.Cols && c0+j < want.Cols; j++ {
				got, w := b.Value.At(i, j), want.At(r0+i, c0+j)
				if !(math.Abs(got-w) <= tol) {
					return fmt.Errorf("element (%d,%d) = %g, want %g", r0+i, c0+j, got, w)
				}
				seen++
			}
		}
	}
	if seen != m.Rows*m.Cols {
		return fmt.Errorf("tiles cover %d of %d elements", seen, m.Rows*m.Cols)
	}
	return nil
}

func tilesOf(n int64) int64 {
	t := (n + fig4Tile - 1) / fig4Tile
	return t * t
}

// probes runs the layer probes on the shapes and tiles this workload
// uses.
func (f *fig4) probes(rep *report) error {
	if err := probeGemm(rep, fig4Tile, f.seed); err != nil {
		return err
	}
	if err := probeAdd(rep, fig4Tile, f.seed); err != nil {
		return err
	}
	if err := probeCodec(rep, dataflow.Collect(f.amul.Tiles)); err != nil {
		return err
	}
	if err := probeCompile(rep, f.s, []string{srcAdd, srcMul, srcContract}); err != nil {
		return err
	}
	probeTasks(rep, fig4Parallelism, fig4Parts)
	return nil
}
