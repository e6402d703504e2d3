package main

// Shared measurement: the sequential op loop, per-op samples, engine
// counter deltas and span analysis.

import (
	"sort"
	"strings"
	"time"

	"repro/internal/dataflow"
	"repro/internal/trace"
)

// sample appends one per-op value of a per-layer metric; the reported
// value is the median of its samples. Nil-safe, so warm-up ops can
// pass a nil report.
func (r *report) sample(name string, v float64) {
	if r != nil {
		r.samples[name] = append(r.samples[name], v)
	}
}

// seqLoop runs ops back to back until the measured window has passed.
// In a traced run every second op is traced, so traced and untraced ops
// share the same conditions.
func seqLoop(cfg runConfig, rep *report, op func(traced bool) (time.Duration, error)) {
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds; i++ {
		traced := cfg.traced && i%2 == 1
		rep.attempted++
		d, err := op(traced)
		if err != nil {
			rep.fail(err)
			continue
		}
		if traced {
			rep.tracedMs = append(rep.tracedMs, ms(d))
		} else {
			rep.opsMs = append(rep.opsMs, ms(d))
		}
	}
	rep.elapsed = time.Since(start)
}

// sampleEngine records one op's engine counters (a MetricsSnapshot
// delta) as per-layer samples.
func sampleEngine(rep *report, d dataflow.MetricsSnapshot) {
	var wall time.Duration
	skew := 0.0
	for _, st := range d.PerStage {
		wall += st.Wall
		if s := st.TaskDur.Skew(); s > skew {
			skew = s
		}
	}
	rep.sample("dataflow.tasks", float64(d.Tasks))
	rep.sample("dataflow.stages", float64(d.Stages))
	rep.sample("dataflow.stage_wall_ms", ms(wall))
	rep.sample("dataflow.task_skew", skew)
	rep.sample("dataflow.max_concurrent_stages", float64(d.MaxConcurrentStages))
	rep.sample("dataflow.shuffled_mib", float64(d.ShuffledBytes)/mib)
}

// sampleSpill records one op's spill-to-disk and memory-manager
// counters; only ops under a memory budget move them.
func sampleSpill(rep *report, d dataflow.MetricsSnapshot) {
	rep.sample("spill.spilled_mib", float64(d.SpilledBytes)/mib)
	rep.sample("spill.files", float64(d.SpillFiles))
	rep.sample("spill.merge_passes", float64(d.MergePasses))
	rep.sample("memory.waits", float64(d.BudgetWaits))
	rep.sample("memory.overcommits", float64(d.MemoryOvercommits))
	rep.sample("memory.peak_mib", float64(d.MemoryPeak)/mib)
}

// spanLayer names the layer a span belongs to by its name: the
// benchmark's own spans start with "bench:", the program records
// query/phase, stage, task, kernel and spill/merge spans.
func spanLayer(name string) string {
	switch {
	case strings.HasPrefix(name, "bench:"):
		return "bench"
	case name == "query" || strings.HasPrefix(name, "phase:"):
		return "execute"
	case strings.HasPrefix(name, "stage:"):
		return "stage"
	case name == "task":
		return "task"
	case strings.HasPrefix(name, "kernel:"):
		return "kernel"
	case strings.HasPrefix(name, "spill:"), strings.HasPrefix(name, "merge:"):
		return "spill"
	}
	return ""
}

// spanSums totals span time by layer over one op's tracers: each
// layer's spans' durations, and their self time (duration minus the
// part of the span's interval that its child spans cover). The first
// tracer holds the benchmark's spans; a root span of a later tracer
// (a cluster rank's lane of the merged trace) counts as a child of the
// innermost benchmark span whose interval holds its start, so remote
// work is not counted as benchmark self time.
type spanSums struct {
	total, self map[string]time.Duration
	count       int
}

func sumSpans(trs ...*trace.Tracer) spanSums {
	total := map[string]time.Duration{}
	self := map[string]time.Duration{}
	children := map[*trace.Span][]*trace.Span{}
	var all, bench []*trace.Span
	for i, tr := range trs {
		spans := tr.Spans()
		byID := map[int64]*trace.Span{}
		for _, s := range spans {
			byID[s.ID] = s
		}
		for _, s := range spans {
			parent := byID[s.ParentID]
			if s.ParentID == 0 && i > 0 {
				parent = innermost(bench, s.Start)
			}
			if parent != nil {
				children[parent] = append(children[parent], s)
			}
			if i == 0 && spanLayer(s.Name) == "bench" {
				bench = append(bench, s)
			}
		}
		all = append(all, spans...)
	}
	for _, s := range all {
		layer := spanLayer(s.Name)
		if layer == "" {
			continue
		}
		d := s.Duration()
		total[layer] += d
		self[layer] += d - covered(s, children[s])
	}
	return spanSums{total, self, len(all)}
}

// innermost returns the shortest span whose interval holds t, or nil.
func innermost(spans []*trace.Span, t time.Time) *trace.Span {
	var best *trace.Span
	for _, s := range spans {
		if t.Before(s.Start) || t.After(s.Start.Add(s.Duration())) {
			continue
		}
		if best == nil || s.Duration() < best.Duration() {
			best = s
		}
	}
	return best
}

// sampleSpans records one traced op's span count, kernel time, the
// kernels' share of task time, and each layer's self time, and returns
// the sums.
func sampleSpans(rep *report, trs ...*trace.Tracer) spanSums {
	s := sumSpans(trs...)
	rep.sample("trace.spans", float64(s.count))
	rep.sample("linalg.kernel_ms", ms(s.total["kernel"]))
	rep.sample("linalg.kernel_share", ratio(float64(s.total["kernel"]), float64(s.total["task"])))
	for _, layer := range []string{"bench", "execute", "stage", "task", "kernel", "spill"} {
		rep.sample("trace.self_"+layer+"_ms", ms(s.self[layer]))
	}
	return s
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent *trace.Span, kids []*trace.Span) time.Duration {
	lo, hi := parent.Start, parent.Start.Add(parent.Duration())
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.Start.Add(k.Duration())
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			sum += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}
