package main

// The serve-mix workload: an in-process server.Server (2 sessions,
// tile 16) on loopback, driven over HTTP by a closed loop of 2 clients
// that each wait for their reply. The queries are sacload's five shapes
// at n=64 in three whitespace variants; after every 100 queries one
// POST /data re-registers a side matrix C, alternating between two
// shapes, which takes every session and clears the plan caches.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/trace"
)

const (
	serveN        = 64
	serveTile     = 16
	serveSessions = 2
	serveClients  = 2
	writeEvery    = 100
	// serveSetupReps is the number of builds behind setup_s.
	serveSetupReps = 41
	// inProcessRounds is the number of rounds of in-process passes over
	// the five shapes, each an untraced pass and a traced one.
	inProcessRounds = 40
)

// serveShapes are sacload's five query shapes.
var serveShapes = []string{
	"tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]",
	"tiledvec(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]",
	"+/[ a | ((i,j),a) <- A ]",
	"tiled(n,n)[ ((j,i), a) | ((i,j),a) <- A ]",
	"tiled(n,n)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]",
}

// variant is sacload's whitespace reformatting: variant 0 is verbatim,
// 1 and 2 hit the plan cache's alias and canonical levels.
func variant(src string, v int) string {
	switch v {
	case 1:
		return strings.ReplaceAll(src, " ", "  ")
	case 2:
		return "\n " + strings.ReplaceAll(src, ", ", " ,  ") + " \n"
	}
	return src
}

// shapeResult is the part of a /query reply the benchmark checks.
type shapeResult struct {
	Kind string  `json:"kind"`
	Rows int64   `json:"rows"`
	Cols int64   `json:"cols"`
	Size int64   `json:"size"`
	Sum  float64 `json:"sum"`
	Text string  `json:"text"`
}

// check compares a reply with the in-process reference: kind, shape,
// and the sum (or scalar) within relTol.
func (want shapeResult) check(got shapeResult) error {
	if got.Kind != want.Kind || got.Rows != want.Rows || got.Cols != want.Cols || got.Size != want.Size {
		return fmt.Errorf("got %s %dx%d size %d, want %s %dx%d size %d",
			got.Kind, got.Rows, got.Cols, got.Size, want.Kind, want.Rows, want.Cols, want.Size)
	}
	g, w := got.Sum, want.Sum
	if want.Kind == "scalar" {
		var err error
		if g, err = strconv.ParseFloat(got.Text, 64); err != nil {
			return fmt.Errorf("scalar %q: %w", got.Text, err)
		}
		w, _ = strconv.ParseFloat(want.Text, 64)
	}
	if !(math.Abs(g-w) <= relTol*(math.Abs(w)+1)) {
		return fmt.Errorf("sum %g, want %g", g, w)
	}
	return nil
}

func summarize(res *plan.Result) shapeResult {
	switch res.Kind() {
	case "matrix":
		return shapeResult{Kind: "matrix", Rows: res.Matrix.Rows, Cols: res.Matrix.Cols, Sum: res.Matrix.ToDense().Sum()}
	case "vector":
		return shapeResult{Kind: "vector", Size: res.Vector.Size, Sum: res.Vector.ToDense().Sum()}
	}
	return shapeResult{Kind: res.Kind(), Text: comp.Render(res.Scalar)}
}

type serveBench struct {
	seed   int64
	srv    *server.Server
	url    string
	served chan error
	client *http.Client
	want   []shapeResult
}

func runServeMix(cfg runConfig) (*report, error) {
	ref := core.NewSession(core.Config{TileSize: serveTile})
	defer ref.Close()
	a := ref.RegisterRandMatrix("A", serveN, serveN, 0, 10, seedFor(cfg.seed, 30))
	ref.RegisterRandMatrix("B", serveN, serveN, 0, 10, seedFor(cfg.seed, 31))
	ref.RegisterScalar("n", int64(serveN))
	var want []shapeResult
	for _, src := range serveShapes {
		res, err := ref.Query(src)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		want = append(want, summarize(res))
	}

	rep := newReport()
	// A build takes tens of milliseconds, so many of them steady the
	// median.
	setups, b, err := timedSetups(setupReps(cfg, serveSetupReps), func() (*serveBench, error) {
		return newServeBench(cfg.seed, want, rep)
	})
	if err != nil {
		return nil, err
	}
	defer b.close()
	rep.setups = setups

	var before serverCounters
	if cfg.traced {
		if before, err = b.counters(); err != nil {
			return nil, err
		}
	}
	b.closedLoop(cfg, rep)
	if cfg.traced {
		after, err := b.counters()
		if err != nil {
			return nil, err
		}
		hits, misses := float64(after.hits-before.hits), float64(after.misses-before.misses)
		rep.layer["server.plan_hit_rate"] = ratio(hits, hits+misses)
		rep.layer["server.rejected"] = float64(after.rejected - before.rejected)
		rep.layer["server.queued"] = float64(after.queued - before.queued)
		rep.layer["op_p99_ms"] = percentile(rep.opsMs, 0.99)
		if err := serveInProcess(rep, ref, want); err != nil {
			return nil, err
		}
		if err := probeGemm(rep, serveTile, cfg.seed); err != nil {
			return nil, err
		}
		if err := probeAdd(rep, serveTile, cfg.seed); err != nil {
			return nil, err
		}
		if err := probeCodec(rep, dataflow.Collect(a.Tiles)); err != nil {
			return nil, err
		}
		var texts []string
		for _, s := range serveShapes {
			for v := 0; v < 3; v++ {
				texts = append(texts, variant(s, v))
			}
		}
		if err := probeCompile(rep, ref, texts); err != nil {
			return nil, err
		}
		probeTasks(rep, ref.Engine().Conf().Parallelism, ref.Engine().DefaultPartitions())
	}
	return rep, nil
}

// newServeBench starts the server on a loopback port, registers A, B
// and n, and warms up with every shape in every variant.
func newServeBench(seed int64, want []shapeResult, rep *report) (*serveBench, error) {
	srv, err := server.New(server.Config{Sessions: serveSessions, TileSize: serveTile})
	if err != nil {
		return nil, err
	}
	b := &serveBench{seed: seed, srv: srv, want: want, served: make(chan error, 1),
		client: &http.Client{Timeout: time.Minute}}
	for i, name := range []string{"A", "B"} {
		if err := srv.RegisterRandMatrix(name, serveN, serveN, 0, 10, seedFor(seed, 30+i)); err != nil {
			srv.Close()
			return nil, err
		}
	}
	if err := srv.RegisterScalar("n", int64(serveN)); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	b.url = "http://" + ln.Addr().String()
	go func() { b.served <- srv.Serve(ln) }()
	for shape := range serveShapes {
		for v := 0; v < 3; v++ {
			rep.attempted++
			if err := b.query(shape, v); err != nil {
				rep.fail(fmt.Errorf("warm-up: %w", err))
			}
		}
	}
	return b, nil
}

func (b *serveBench) close() {
	b.srv.Close()
	<-b.served
	b.client.CloseIdleConnections()
}

// closedLoop runs the clients until the measured window has passed.
// The client that draws a multiple of writeEvery first re-registers C.
func (b *serveBench) closedLoop(cfg runConfig, rep *report) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i > 0 && i%writeEvery == 0 {
					t0 := time.Now()
					err := b.write(i / writeEvery)
					d := time.Since(t0)
					mu.Lock()
					rep.attempted++
					if err != nil {
						rep.fail(err)
					} else {
						rep.sample("server.write_ms", ms(d))
					}
					mu.Unlock()
				}
				// Shape and variant are drawn per query index, so the two
				// clients' concurrent queries pair up at random rather than
				// in the fixed order of a rotation.
				draw := uint64(seedFor(b.seed, int(i)))
				shape := int(draw % uint64(len(serveShapes)))
				t0 := time.Now()
				err := b.query(shape, int(draw/uint64(len(serveShapes))%3))
				d := time.Since(t0)
				mu.Lock()
				rep.attempted++
				if err != nil {
					rep.fail(err)
				} else {
					rep.opsMs = append(rep.opsMs, ms(d))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.elapsed = time.Since(start)
}

// query posts one query and checks the reply against the reference.
func (b *serveBench) query(shape, v int) error {
	body, err := json.Marshal(map[string]string{"query": variant(serveShapes[shape], v)})
	if err != nil {
		return err
	}
	resp, err := b.client.Post(b.url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("shape %d: HTTP %d: %s", shape, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var reply struct {
		Result shapeResult `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return fmt.Errorf("shape %d: %w", shape, err)
	}
	if err := b.want[shape].check(reply.Result); err != nil {
		return fmt.Errorf("shape %d: %w", shape, err)
	}
	return nil
}

// write re-registers C, alternating between two shapes, so every
// write clears the plan caches.
func (b *serveBench) write(k int64) error {
	cols := serveN
	if k%2 == 1 {
		cols = serveN / 2
	}
	body, err := json.Marshal(map[string]any{"name": "C", "rows": serveN, "cols": cols, "seed": seedFor(b.seed, int(40+k))})
	if err != nil {
		return err
	}
	resp, err := b.client.Post(b.url+"/data", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var reply struct {
		Registered string `json:"registered"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil || resp.StatusCode != http.StatusOK || reply.Registered != "C" {
		return fmt.Errorf("POST /data: HTTP %d, registered %q, %v", resp.StatusCode, reply.Registered, err)
	}
	return nil
}

// serverCounters are the service counters a traced run reports as
// deltas over the measured window.
type serverCounters struct{ hits, misses, rejected, queued int64 }

// counters reads the plan-cache and admission counters from /status,
// and the admission-queue counter, which /status lacks, from
// /debug/metrics.
func (b *serveBench) counters() (serverCounters, error) {
	var c serverCounters
	resp, err := b.client.Get(b.url + "/status")
	if err != nil {
		return c, err
	}
	var doc server.StatusDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		return c, err
	}
	c.hits, c.misses, c.rejected = doc.PlanCache.Hits, doc.PlanCache.Misses, doc.Admission.Rejected

	resp, err = b.client.Get(b.url + "/debug/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "sac_server_admission_queued_total "); ok {
			c.queued, err = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return c, err
		}
	}
	if err := sc.Err(); err != nil {
		return c, err
	}
	return c, fmt.Errorf("/debug/metrics has no sac_server_admission_queued_total")
}

// serveInProcess runs the shape mix on the reference session, in
// rounds of one untraced ExecuteAndForce pass and one traced
// ExecuteInSpan pass over the five shapes. The server records no spans,
// so these passes, not the HTTP ops, give trace.overhead_frac (traced
// query p50 over untraced) and the engine's counters and spans per
// traced pass. server.overhead_ms is the HTTP op p50 minus the
// untraced query p50.
func serveInProcess(rep *report, ref *core.Session, want []shapeResult) error {
	var plans []*plan.Compiled
	for _, src := range serveShapes {
		q, err := ref.Compile(src)
		if err != nil {
			return err
		}
		plans = append(plans, q)
	}
	var execMs, tracedMs []float64
	for i := 0; i < inProcessRounds; i++ {
		for shape, q := range plans {
			start := time.Now()
			res, err := q.ExecuteAndForce()
			if err != nil {
				return err
			}
			execMs = append(execMs, ms(time.Since(start)))
			if err := want[shape].check(summarize(res)); err != nil {
				return fmt.Errorf("in-process shape %d: %w", shape, err)
			}
		}
		tr := trace.New()
		root := tr.Start(nil, "bench: op")
		before := ref.Metrics()
		for shape, q := range plans {
			span := root.StartChild("bench: query")
			start := time.Now()
			res, err := execute(q, ref.Engine(), tr, span)
			tracedMs = append(tracedMs, ms(time.Since(start)))
			span.End()
			if err != nil {
				return err
			}
			if err := want[shape].check(summarize(res)); err != nil {
				return fmt.Errorf("in-process traced shape %d: %w", shape, err)
			}
		}
		root.End()
		sampleEngine(rep, ref.Metrics().Sub(before))
		sampleSpans(rep, tr)
	}
	rep.layer["server.overhead_ms"] = median(rep.opsMs) - median(execMs)
	setOverhead(rep, tracedMs, execMs)
	return nil
}
