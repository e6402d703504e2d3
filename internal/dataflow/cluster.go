package dataflow

// Distributed SPMD execution. The cluster runtime runs the *same*
// deterministic driver program on every worker process (rank 0..W-1 of
// a world of W): queries are data in this system, so every rank builds
// an identical stage DAG with identical stage IDs, and ownership is
// pure arithmetic — task i of an n-task stage runs on rank i % W.
//
// Shuffles become published blobs: the map side encodes each (map
// task, reduce bucket) with the row type's registered spill codec and
// publishes it under a key derived from the stage ID; the reduce side
// reassembles a partition by fetching every map task's bucket from its
// owner (local buckets never touch the network, and co-partitioned
// narrow reads are entirely local by construction). Assembly in map
// task order reproduces the local merge's concatenation order exactly,
// which is what makes cluster results byte-identical to local ones.
//
// Fault tolerance is lineage recompute, the same machinery the local
// retry path exercises: when a fetch fails because the owning peer
// died, the reading rank recomputes the lost map task locally from its
// lineage (sources are deterministic and replicated; narrow chains are
// local), exactly like Spark resubmitting a lost task. The
// Resubmissions / FetchFailures counters record it. A job therefore
// completes as long as at least one rank survives.

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/spill"
)

// Transport connects one rank of a distributed job to its peers. It is
// implemented by cluster.Exchange (chunked, connection-pooled TCP
// streams) and by in-process test fakes; dataflow deliberately depends
// only on this structural interface, never on the cluster package.
type Transport interface {
	// Rank is this process's 0-based index in the job.
	Rank() int
	// World is the number of ranks in the job.
	World() int
	// Publish stores blob under key in this rank's shuffle store,
	// where peers (and this rank) can fetch it.
	Publish(key string, blob []byte) error
	// FetchReader streams the blob published under key by rank, so the
	// consumer decodes while bytes are still arriving and the blob
	// never has to exist whole on this side. The first read blocks
	// until the owner publishes; an error means the owner is dead or
	// unreachable and the caller falls back to lineage recompute.
	//
	// A reader that can fail mid-stream for transport reasons (the peer
	// died) should also implement `TransportErr() error`, so the
	// consumer can tell "recompute from lineage" apart from "payload
	// corrupt": a decode failure with a nil TransportErr is treated as
	// corruption and panics.
	FetchReader(rank int, key string) (io.ReadCloser, error)
}

// transportErr extracts a reader's transport-level failure, if it
// exposes one.
func transportErr(rc io.ReadCloser) error {
	if te, ok := rc.(interface{ TransportErr() error }); ok {
		return te.TransportErr()
	}
	return nil
}

// exchKey names one (exchange, map task, reduce bucket) blob. Stage
// IDs are deterministic across ranks (the graph is built by the same
// single-threaded program), so they double as exchange IDs.
func exchKey(exch int64, m, b int) string {
	return fmt.Sprintf("x%d.%d.%d", exch, m, b)
}

// gatherKey names one action partial (stage, partition).
func gatherKey(stage int64, p int) string {
	return fmt.Sprintf("g%d.%d", stage, p)
}

// encodeRows / decodeRows frame a bucket's rows with the registered
// spill codec — the cluster wire format.
func encodeRows[T any](rows []T, c spill.Codec[T]) []byte {
	blob, err := spill.EncodeRows(rows, c)
	if err != nil {
		panic(fmt.Errorf("dataflow: encode shuffle rows: %w", err))
	}
	return blob
}

// spmdState is the distributed counterpart of spillState: per-exchange
// bookkeeping for publishing, fetching, and recomputing buckets.
type spmdState[T any] struct {
	t        Transport
	exchID   int64
	srcParts int
	codec    spill.Codec[T]
	// refill recomputes one map task's buckets from lineage; it is both
	// the primary map-side body and the recompute fallback when the
	// owning peer died before serving a fetch.
	refill func(m int) ([]bucketed[T], int64)

	// pmu[p]/done[p] make partition assembly exactly-once per rank, so
	// post-folds (ReduceByKey) run once and repeated reads share the
	// assembled slice like the local buckets do.
	pmu  []sync.Mutex
	done []bool

	// recomputed caches refill outputs for dead ranks' map tasks, so a
	// lost peer costs one recompute per map task, not one per bucket.
	recMu      sync.Mutex
	recomputed map[int][]bucketed[T]
}

// runSPMD is the distributed map side of a shuffle stage: each rank
// runs its owned map tasks via refill, encodes every reduce bucket
// with the spill codec, and publishes it to the local exchange store
// for peers to fetch. Narrow (co-partitioned) exchanges publish only
// bucket m of map task m — the single bucket the task fills — and
// their reads stay on-rank, so no data crosses the network.
func (s *lazyBuckets[T]) runSPMD(st *Stage, srcParts int, refill func(m int) ([]bucketed[T], int64)) {
	c := s.ctx
	t := c.conf.Transport
	sd := &spmdState[T]{
		t:        t,
		exchID:   st.id,
		srcParts: srcParts,
		codec:    spill.For[T](),
		refill:   refill,
		pmu:      make([]sync.Mutex, s.parts),
		done:     make([]bool, s.parts),
	}
	s.spmd = sd
	s.buckets = make([][]T, s.parts)
	var recs, bytes atomic.Int64
	c.runTasksOwned(st, srcParts, func(m int) {
		bk, in := refill(m)
		st.noteIn(m, in)
		for b := range bk {
			if s.narrow && b != m {
				continue
			}
			blob := encodeRows(bk[b].rows, sd.codec)
			if err := t.Publish(exchKey(sd.exchID, m, b), blob); err != nil {
				panic(fmt.Errorf("dataflow: %s: publish map task %d bucket %d: %w", s.name, m, b, err))
			}
			recs.Add(int64(len(bk[b].rows)))
			bytes.Add(bk[b].bytes)
		}
	})
	st.recordsOut.Add(recs.Load())
	st.shuffledBytes.Add(bytes.Load())
	if !s.narrow {
		c.metrics.shuffles.Add(1)
		c.metrics.shuffledRecords.Add(recs.Load())
		c.metrics.shuffledBytes.Add(bytes.Load())
		c.chargeShuffleCost(bytes.Load())
	}
}

// getSPMD assembles reduce partition p on this rank: every map task's
// bucket, fetched from its owner (or read back from the local store,
// or recomputed from lineage when the owner died), concatenated in map
// task order — the exact order the local merge produces. The assembled
// (and post-folded) slice is cached, so repeated reads behave like the
// local buckets array.
func (s *lazyBuckets[T]) getSPMD(p int) []T {
	sd := s.spmd
	sd.pmu[p].Lock()
	defer sd.pmu[p].Unlock()
	if sd.done[p] {
		return s.buckets[p]
	}
	var rows []T
	if s.narrow {
		// Co-partitioned: bucket p was filled only by map task p, and
		// map task p and reduce task p share an owner, so the read is
		// always rank-local.
		rows = s.fetchBucket(p, p)
	} else {
		rows = s.assemblePartition(p)
	}
	if s.post != nil {
		rows = s.post(rows)
	}
	s.buckets[p] = rows
	sd.done[p] = true
	return rows
}

// streamFetchWindow bounds the concurrent bucket fetches one reduce
// task keeps in flight while assembling its partition. The window is
// what pipelines the shuffle: a fetch from a map task that hasn't
// published yet just blocks its slot while chunks from early-finishing
// maps decode in the others.
const streamFetchWindow = 4

// assemblePartition concatenates every map task's bucket for partition
// p in map-task order — the exact order the local merge produces, so
// cluster results stay byte-identical — while fetching up to
// streamFetchWindow buckets concurrently.
func (s *lazyBuckets[T]) assemblePartition(p int) []T {
	sd := s.spmd
	n := sd.srcParts
	if n == 1 {
		return s.fetchBucket(0, p)
	}
	window := streamFetchWindow
	if window > n {
		window = n
	}
	parts := make([][]T, n)
	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	var panicked atomic.Pointer[capturedPanic]
	for m := 0; m < n; m++ {
		if panicked.Load() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &capturedPanic{val: r})
				}
			}()
			parts[m] = s.fetchBucket(m, p)
		}(m)
	}
	wg.Wait()
	if pc := panicked.Load(); pc != nil {
		panic(pc.val)
	}
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	rows := make([]T, 0, total)
	for _, part := range parts {
		rows = append(rows, part...)
	}
	return rows
}

// fetchBucket returns map task m's rows for bucket b: from the local
// store when this rank owns m, over the network otherwise, and by
// lineage recompute when the owner is dead or the stream tore.
func (s *lazyBuckets[T]) fetchBucket(m, b int) []T {
	sd := s.spmd
	key := exchKey(sd.exchID, m, b)
	rows, ok := fetchRows(s.ctx, sd.t, sd.codec, m%sd.t.World(), key, s.name)
	if ok {
		return rows
	}
	s.ctx.metrics.fetchFailures.Add(1)
	return s.recomputeBucket(m, b)
}

// fetchRows streams the blob key from owner and decodes its rows as
// chunks arrive. The second return is false when the blob must be
// recomputed from lineage (owner dead or stream torn down
// mid-transfer); payload corruption — a decode failure with no
// transport error behind it — panics, because recomputing
// deterministic lineage would produce the same bytes. So does losing a
// blob this rank published itself. name labels the consumer in panics.
func fetchRows[T any](c *Context, t Transport, codec spill.Codec[T], owner int, key, name string) ([]T, bool) {
	local := owner == t.Rank()
	rc, err := t.FetchReader(owner, key)
	if err != nil {
		if local {
			panic(fmt.Errorf("dataflow: %s: local blob %s lost: %w", name, key, err))
		}
		return nil, false
	}
	cr := &countingReader{r: rc}
	rows, derr := spill.DecodeRowsFrom(cr, codec)
	if derr == nil {
		// Drain the trailing stream terminator so a cleanly-finished
		// connection goes back to the transport's pool on Close.
		_, derr = io.Copy(io.Discard, cr)
	}
	rc.Close()
	if derr != nil {
		if te := transportErr(rc); te != nil {
			if local {
				panic(fmt.Errorf("dataflow: %s: local blob %s lost: %w", name, key, te))
			}
			return nil, false
		}
		panic(fmt.Errorf("dataflow: %s: decode blob %s: %w", name, key, derr))
	}
	if !local {
		c.metrics.remoteFetches.Add(1)
		c.metrics.remoteFetchedBytes.Add(cr.n)
	}
	return rows, true
}

// countingReader counts the bytes a streaming fetch delivered, for the
// RemoteFetchedBytes metric.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// recomputeBucket re-executes dead rank's map task m from lineage —
// the distributed task resubmission path — and serves bucket b from
// the result. The recompute is cached per map task, so losing a worker
// costs each surviving rank at most one recompute per lost map task.
func (s *lazyBuckets[T]) recomputeBucket(m, b int) []T {
	sd := s.spmd
	sd.recMu.Lock()
	defer sd.recMu.Unlock()
	if sd.recomputed == nil {
		sd.recomputed = make(map[int][]bucketed[T])
	}
	bk, ok := sd.recomputed[m]
	if !ok {
		s.ctx.metrics.resubmissions.Add(1)
		bk, _ = sd.refill(m)
		sd.recomputed[m] = bk
	}
	return bk[b].rows
}

// spmdGather runs an action's per-partition computation across the
// cluster: each rank computes and publishes its owned partitions, then
// fills in the rest by fetching from the owners — recomputing locally
// (and counting a resubmission) for partitions whose owner died. Every
// rank returns the identical full set of partials, so every rank
// drives the identical driver-side fold.
func spmdGather[T any](c *Context, st *Stage, n int, compute func(p int) []T) [][]T {
	t := c.conf.Transport
	codec := spill.For[T]()
	out := make([][]T, n)
	c.runTasksOwned(st, n, func(p int) {
		rows := compute(p)
		out[p] = rows
		if err := t.Publish(gatherKey(st.id, p), encodeRows(rows, codec)); err != nil {
			panic(fmt.Errorf("dataflow: %s: publish partial %d: %w", st.name, p, err))
		}
	})
	for p := 0; p < n; p++ {
		if c.owns(p) {
			continue
		}
		out[p] = spmdFetchPartial(c, st, t, codec, p, compute)
	}
	return out
}

// spmdFetchPartial fetches one action partial from its owner, falling
// back to local recompute when the owner is gone.
func spmdFetchPartial[T any](c *Context, st *Stage, t Transport, codec spill.Codec[T], p int, compute func(p int) []T) []T {
	rows, ok := fetchRows(c, t, codec, p%t.World(), gatherKey(st.id, p), st.name)
	if !ok {
		c.metrics.fetchFailures.Add(1)
		c.metrics.resubmissions.Add(1)
		return compute(p)
	}
	return rows
}

// spmdGatherOne is spmdGather for a single partition, used by the
// sequential Take scan: the owner computes and publishes, everyone
// else fetches or recomputes. All ranks see identical rows, so all
// ranks stop the scan at the same partition.
func spmdGatherOne[T any](c *Context, st *Stage, p int, compute func() []T) []T {
	t := c.conf.Transport
	codec := spill.For[T]()
	if c.owns(p) {
		start := time.Now()
		rows := compute()
		if err := t.Publish(gatherKey(st.id, p), encodeRows(rows, codec)); err != nil {
			panic(fmt.Errorf("dataflow: %s: publish partial %d: %w", st.name, p, err))
		}
		st.noteTaskDur(p, time.Since(start))
		c.metrics.tasks.Add(1)
		st.tasks.Add(1)
		return rows
	}
	return spmdFetchPartial(c, st, t, codec, p, func(int) []T { return compute() })
}
