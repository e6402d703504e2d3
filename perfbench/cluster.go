package main

// The cluster-shuffle workload: an in-process driver and two workers
// over loopback TCP, queried through jobs.ClusterSession with the
// shipped wire defaults. One op is a GBJ multiply at n=800 and a
// transpose at n=1600, tile 100; each result must be byte-identical to
// jobs.RunQueryLocal with the same pinned partition count.

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/jobs"
	"repro/internal/trace"
)

const (
	clusterWorkers = 2
	clusterTile    = 100
	clusterParts   = 8 // what a two-worker cluster derives; pinned so the local reference builds the same stages
	nClusterMul    = 800
	nTranspose     = 1600
	srcTranspose   = "tiled(n,n)[ ((j,i), a) | ((i,j),a) <- A ]"
	srcClusterMul  = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]"
	clusterTimeout = 2 * time.Minute
	// clusterSetupReps is the number of builds behind setup_s; a build
	// takes about a second.
	clusterSetupReps = 7
)

type clusterQuery struct {
	metric string
	params jobs.QueryParams
	want   []byte
}

type clusterBench struct {
	driver  *cluster.Driver
	workers []*cluster.Worker
	queries []clusterQuery
}

func clusterQueries(seed int64) []clusterQuery {
	base := jobs.QueryParams{Tile: clusterTile, Partitions: clusterParts, SeedA: seedFor(seed, 20), SeedB: seedFor(seed, 21)}
	mul, tr := base, base
	mul.Src, mul.N = srcClusterMul, nClusterMul
	tr.Src, tr.N = srcTranspose, nTranspose
	return []clusterQuery{{metric: "matmul_gbj_ms", params: mul}, {metric: "transpose_ms", params: tr}}
}

func runClusterShuffle(cfg runConfig) (*report, error) {
	queries := clusterQueries(cfg.seed)
	for i := range queries {
		want, err := jobs.RunQueryLocal(queries[i].params)
		if err != nil {
			return nil, fmt.Errorf("local reference: %w", err)
		}
		queries[i].want = want
	}
	rep := newReport()
	setups, c, err := timedSetups(setupReps(cfg, clusterSetupReps), func() (*clusterBench, error) {
		return newClusterBench(queries, rep)
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	rep.setups = setups

	hits, misses := 0.0, 0.0
	seqLoop(cfg, rep, func(traced bool) (time.Duration, error) {
		var tr *trace.Tracer
		var root *trace.Span
		if traced {
			tr = trace.New()
			root = tr.Start(nil, "bench: op")
		}
		start := time.Now()
		var op dataflow.MetricsSnapshot
		var rankWall, overhead float64
		trs := []*trace.Tracer{tr}
		for _, q := range c.queries {
			span := root.StartChild("bench: " + q.metric)
			qStart := time.Now()
			run, snap, err := c.query(q, traced)
			d := time.Since(qStart)
			span.End()
			if err != nil {
				return time.Since(start), fmt.Errorf("%s: %w", q.metric, err)
			}
			if traced {
				trs = append(trs, run.MergedTrace())
			} else {
				rep.sample(q.metric, ms(d))
			}
			if q.metric == "matmul_gbj_ms" {
				rep.sample("tiled.gbj_replication", float64(snap.ShuffledRecords)/float64(2*tilesOf(nClusterMul)))
			}
			slowest := slowestRank(snap)
			rankWall += ms(slowest)
			overhead += ms(d - slowest)
			rep.sample("cluster.straggler_ratio", stragglerRatio(snap))
			op = addSnapshots(op, snap)
		}
		d := time.Since(start)
		root.End()
		if traced {
			sampleSpans(rep, trs...)
		}
		if cfg.traced {
			sampleEngine(rep, op)
			rep.sample("cluster.wire_mib", float64(op.WireFetchedBytes)/mib)
			rep.sample("cluster.wire_raw_mib", float64(op.WireRawBytes)/mib)
			rep.sample("cluster.chunks", float64(op.WireChunks))
			rep.sample("cluster.remote_fetches", float64(op.RemoteFetches))
			rep.sample("cluster.fetch_retries", float64(op.FetchRetries))
			rep.sample("cluster.fetch_failures", float64(op.FetchFailures))
			rep.sample("cluster.resubmissions", float64(op.Resubmissions))
			rep.sample("cluster.rank_wall_ms", rankWall)
			rep.sample("jobs.driver_overhead_ms", overhead)
			hits += float64(op.ConnPoolHits)
			misses += float64(op.ConnPoolMisses)
		}
		return d, nil
	})
	if cfg.traced {
		rep.layer["cluster.conn_pool_hit_rate"] = ratio(hits, hits+misses)
		if err := clusterProbes(rep, cfg.seed, queries[0].params); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// newClusterBench starts the driver and workers, waits for
// registration, and runs one verified warm-up op.
func newClusterBench(queries []clusterQuery, rep *report) (*clusterBench, error) {
	d, err := cluster.NewDriver(cluster.DriverConfig{})
	if err != nil {
		return nil, err
	}
	c := &clusterBench{driver: d, queries: queries}
	for i := 0; i < clusterWorkers; i++ {
		w, err := cluster.StartWorker(cluster.WorkerConfig{
			ID:          fmt.Sprintf("bench-w%d", i),
			DriverAddr:  d.Addr(),
			Parallelism: 1,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, w)
	}
	if err := d.WaitForWorkers(clusterWorkers, 30*time.Second); err != nil {
		c.close()
		return nil, err
	}
	for _, q := range queries {
		rep.attempted++
		if _, _, err := c.query(q, false); err != nil {
			rep.fail(fmt.Errorf("warm-up %s: %w", q.metric, err))
		}
	}
	return c, nil
}

func (c *clusterBench) close() {
	for _, w := range c.workers {
		w.Close()
	}
	c.driver.Close()
}

// query runs one query on the cluster and checks its result blob.
func (c *clusterBench) query(q clusterQuery, traced bool) (*cluster.RunResult, dataflow.MetricsSnapshot, error) {
	p := q.params
	p.Trace = traced
	cs := jobs.NewClusterSession(c.driver, p, clusterTimeout)
	got, run, err := cs.Query(p.Src)
	if err != nil {
		return nil, dataflow.MetricsSnapshot{}, err
	}
	if !bytes.Equal(got, q.want) {
		return nil, dataflow.MetricsSnapshot{}, fmt.Errorf("result differs from the local reference (%s, want %s)",
			jobs.FormatResult(got), jobs.FormatResult(q.want))
	}
	if traced && cs.LastTrace() == nil {
		return nil, dataflow.MetricsSnapshot{}, fmt.Errorf("traced query shipped no spans")
	}
	return run, cs.Metrics(), nil
}

func slowestRank(s dataflow.MetricsSnapshot) time.Duration {
	var max time.Duration
	for _, w := range s.PerWorker {
		if w.Wall > max {
			max = w.Wall
		}
	}
	return max
}

// stragglerRatio is the slowest rank's wall over the median rank's.
func stragglerRatio(s dataflow.MetricsSnapshot) float64 {
	var walls []float64
	for _, w := range s.PerWorker {
		walls = append(walls, float64(w.Wall))
	}
	return ratio(percentile(walls, 1), median(walls))
}

// addSnapshots sums the counters of one op's queries that the traced
// run samples.
func addSnapshots(a, b dataflow.MetricsSnapshot) dataflow.MetricsSnapshot {
	a.Tasks += b.Tasks
	a.Stages += b.Stages
	a.ShuffledBytes += b.ShuffledBytes
	a.PerStage = append(a.PerStage, b.PerStage...)
	a.WireFetchedBytes += b.WireFetchedBytes
	a.WireRawBytes += b.WireRawBytes
	a.WireChunks += b.WireChunks
	a.RemoteFetches += b.RemoteFetches
	a.FetchRetries += b.FetchRetries
	a.FetchFailures += b.FetchFailures
	a.Resubmissions += b.Resubmissions
	a.ConnPoolHits += b.ConnPoolHits
	a.ConnPoolMisses += b.ConnPoolMisses
	return a
}

// clusterProbes runs the layer probes on the GBJ query's tiles and
// texts, with one worker's parallelism.
func clusterProbes(rep *report, seed int64, mul jobs.QueryParams) error {
	if err := probeGemm(rep, clusterTile, seed); err != nil {
		return err
	}
	if err := probeAdd(rep, clusterTile, seed); err != nil {
		return err
	}
	s := core.NewSession(core.Config{TileSize: clusterTile, Partitions: clusterParts, Parallelism: 1})
	defer s.Close()
	a := s.RegisterRandMatrix("A", mul.N, mul.N, 0, 10, mul.SeedA)
	s.RegisterRandMatrix("B", mul.N, mul.N, 0, 10, mul.SeedB)
	s.RegisterScalar("n", mul.N)
	if err := probeCodec(rep, dataflow.Collect(a.Tiles)); err != nil {
		return err
	}
	if err := probeCompile(rep, s, []string{srcClusterMul, srcTranspose}); err != nil {
		return err
	}
	probeTasks(rep, 1, clusterParts)
	return nil
}
