// Shuffle data-plane benchmark: a real in-process cluster (driver + N
// workers over TCP loopback) runs shuffle-heavy queries — a
// terasort-style repartition/aggregation and a large group-by-join
// matmul — over the chunk-streaming wire. Each case reports wall
// clock, chunk frame bytes on the wire vs the bucket bytes they carry,
// chunk and connection-pool counters, and a byte-identity check
// against the local reference (sacbench -fig shuffle -json writes the
// suite as BENCH_shuffle.json).

package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
)

// ShuffleConfig sizes the shuffle benchmark.
type ShuffleConfig struct {
	// Workers is the in-process worker count (default 3; CI runs 8).
	Workers int
	// N is the matrix side length; Tile the block dimension.
	N, Tile int64
	// Partitions overrides the shuffle partition count (default:
	// derived from the worker count like any cluster query).
	Partitions int64
}

// DefaultShuffleConfig returns CI-scale settings: big enough that the
// GBJ multiply spans many chunks per bucket, small enough to finish in
// seconds.
func DefaultShuffleConfig() ShuffleConfig {
	return ShuffleConfig{Workers: 3, N: 160, Tile: 16}
}

// ShuffleCase is one query's run on the cluster.
type ShuffleCase struct {
	Name    string  `json:"name"`
	Query   string  `json:"query"`
	Seconds float64 `json:"seconds"`
	// WireBytes is what crossed TCP in chunk frames (bucket bytes plus
	// each chunk's length header); WireRawBytes the bucket bytes alone.
	WireBytes    int64 `json:"wire_bytes"`
	WireRawBytes int64 `json:"wire_raw_bytes"`
	// Chunks / pool counters expose the streaming data plane at work.
	Chunks         int64 `json:"chunks"`
	ConnPoolHits   int64 `json:"conn_pool_hits"`
	ConnPoolMisses int64 `json:"conn_pool_misses"`
	FetchRetries   int64 `json:"fetch_retries"`
	ShuffledBytes  int64 `json:"shuffled_bytes"`
	// ResultMatchesLocal asserts the cluster returned the local
	// backend's exact bytes.
	ResultMatchesLocal bool `json:"result_matches_local"`
}

// ShuffleSuite is the BENCH_shuffle.json document.
type ShuffleSuite struct {
	Workers    int           `json:"workers"`
	N          int64         `json:"n"`
	Tile       int64         `json:"tile"`
	Partitions int64         `json:"partitions"`
	Cases      []ShuffleCase `json:"cases"`
}

// shuffleQueries are the two shuffle-heavy workloads: a terasort-style
// repartition + aggregation (every element re-keyed by row, then
// reduced), and the large SUMMA group-by-join multiply.
var shuffleQueries = []struct{ name, src string }{
	{"repartition-rowsums", "tiledvec(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]"},
	{"gbj-matmul", "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]"},
}

// Shuffle starts a fresh cluster and runs every case, one
// ClusterSession per case so the counters isolate.
func Shuffle(cfg ShuffleConfig) (ShuffleSuite, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.N <= 0 || cfg.Tile <= 0 {
		d := DefaultShuffleConfig()
		cfg.N, cfg.Tile = d.N, d.Tile
	}
	if cfg.Partitions <= 0 {
		// Pin the partition count explicitly (what the cluster would
		// derive from its world size) so the local reference builds the
		// same stage graph and the byte-identity check is meaningful.
		cfg.Partitions = int64(4 * cfg.Workers)
		if cfg.Partitions < 8 {
			cfg.Partitions = 8
		}
	}
	suite := ShuffleSuite{Workers: cfg.Workers, N: cfg.N, Tile: cfg.Tile, Partitions: cfg.Partitions}

	d, err := cluster.NewDriver(cluster.DriverConfig{})
	if err != nil {
		return suite, fmt.Errorf("bench: driver: %w", err)
	}
	defer d.Close()
	workers := make([]*cluster.Worker, 0, cfg.Workers)
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	for i := 0; i < cfg.Workers; i++ {
		w, err := cluster.StartWorker(cluster.WorkerConfig{
			ID:          fmt.Sprintf("bench-w%d", i),
			DriverAddr:  d.Addr(),
			Parallelism: 2,
		})
		if err != nil {
			return suite, fmt.Errorf("bench: worker %d: %w", i, err)
		}
		workers = append(workers, w)
	}
	if err := d.WaitForWorkers(cfg.Workers, 30*time.Second); err != nil {
		return suite, fmt.Errorf("bench: workers never registered: %w", err)
	}

	base := jobs.QueryParams{N: cfg.N, Tile: cfg.Tile, SeedA: 1, SeedB: 2, Partitions: cfg.Partitions}
	for _, q := range shuffleQueries {
		ref := base
		ref.Src = q.src
		want, err := jobs.RunQueryLocal(ref)
		if err != nil {
			return suite, fmt.Errorf("bench: local reference %s: %w", q.name, err)
		}
		cs := jobs.NewClusterSession(d, base, 5*time.Minute)
		start := time.Now()
		got, _, err := cs.Query(q.src)
		if err != nil {
			return suite, fmt.Errorf("bench: %s: %w", q.name, err)
		}
		sec := time.Since(start).Seconds()
		snap := cs.Metrics()
		suite.Cases = append(suite.Cases, ShuffleCase{
			Name:               q.name,
			Query:              q.src,
			Seconds:            sec,
			WireBytes:          snap.WireFetchedBytes,
			WireRawBytes:       snap.WireRawBytes,
			Chunks:             snap.WireChunks,
			ConnPoolHits:       snap.ConnPoolHits,
			ConnPoolMisses:     snap.ConnPoolMisses,
			FetchRetries:       snap.FetchRetries,
			ShuffledBytes:      snap.ShuffledBytes,
			ResultMatchesLocal: bytes.Equal(got, want),
		})
	}
	return suite, nil
}

// Format renders the suite as an aligned table for terminal runs.
func (s ShuffleSuite) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Shuffle data plane — %d workers, n=%d, tile=%d\n", s.Workers, s.N, s.Tile)
	fmt.Fprintf(&b, "%-22s %10s %12s %12s %8s %7s %7s %7s %6s\n",
		"case", "seconds", "wire", "raw", "chunks", "hits", "misses", "retry", "exact")
	for _, c := range s.Cases {
		fmt.Fprintf(&b, "%-22s %10.3f %12s %12s %8d %7d %7d %7d %6v\n",
			c.Name, c.Seconds, sizeOf(c.WireBytes), sizeOf(c.WireRawBytes),
			c.Chunks, c.ConnPoolHits, c.ConnPoolMisses, c.FetchRetries, c.ResultMatchesLocal)
	}
	return b.String()
}

func sizeOf(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
