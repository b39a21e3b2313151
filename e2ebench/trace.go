package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"emdsearch"
)

// span is one recorded interval. Root spans wrap ShardSet calls and
// are observed by the benchmark; dispatch spans mark the start of a
// shard dispatch, observed through ShardSetOptions.ShardHook; engine,
// filter, index and refine spans are laid out from the durations the
// call's QueryStats reports, so they are marked reported: their sizes
// are the engine's own, their placement inside the engine span is
// notional (the KNOP loop interleaves filtering and refinement).
type span struct {
	ID       int64   `json:"id"`
	Parent   int64   `json:"parent"`
	Req      int64   `json:"req"`
	Name     string  `json:"name"`
	Layer    string  `json:"layer"`
	Shard    int     `json:"shard"`
	StartUS  float64 `json:"start_us"`
	DurUS    float64 `json:"dur_us"`
	Reported bool    `json:"reported"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID int64
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s.ID = t.nextID
	if s.Req == 0 {
		s.Req = s.ID
	}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.origin)) / float64(time.Microsecond)
}

// root records a root span around one ShardSet call. A nil tracer
// records nothing.
func (t *tracer) root(name, layer string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	return t.add(span{Name: name, Layer: layer, Shard: -1, StartUS: t.us(start), DurUS: float64(end.Sub(start)) / 1e3})
}

// reqTrace collects one query's shard-dispatch starts from the hook.
type reqTrace struct {
	mu   sync.Mutex
	disp []time.Time // last dispatch start per shard
}

type reqTraceKey struct{}

func withReqTrace(ctx context.Context, rt *reqTrace) context.Context {
	return context.WithValue(ctx, reqTraceKey{}, rt)
}

// hook is the ShardSetOptions.ShardHook of a traced run: it stamps the
// dispatch start of a traced query and never fails the attempt.
func (t *tracer) hook(ctx context.Context, shard, try int, op string) error {
	rt, ok := ctx.Value(reqTraceKey{}).(*reqTrace)
	if !ok {
		return nil
	}
	now := time.Now()
	rt.mu.Lock()
	if shard < len(rt.disp) {
		rt.disp[shard] = now
	}
	rt.mu.Unlock()
	return nil
}

func (rt *reqTrace) dispatches() []time.Time {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]time.Time(nil), rt.disp...)
}

// layerOfStage maps a QueryStats stage name to its layer and a
// normalised name in the metric charset: index stages ("MTree(Red-EMD)",
// "VPTree(Red-EMD)") become "index", filter stages are lower-cased with
// every character outside [a-z0-9._-] replaced by '-'.
func layerOfStage(name string) (layer, norm string) {
	if strings.HasPrefix(name, "MTree(") || strings.HasPrefix(name, "VPTree(") {
		return "index", "index"
	}
	var sb strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	return "filter", strings.Trim(sb.String(), "-")
}

// recordQuery turns one traced query into spans: the root, one
// dispatch mark per shard, and per serving shard an engine span with
// its reported stage and refinement children.
func (t *tracer) recordQuery(r *opRec) {
	name := "KNN"
	if r.kind == opRange {
		name = "Range"
	}
	root := t.root(name, "shardset", r.sent, r.done)
	stats := r.shardStats()
	for shard, at := range r.disp {
		if at.IsZero() {
			continue
		}
		t.add(span{Parent: root, Req: root, Name: "dispatch", Layer: "shardset", Shard: shard, StartUS: t.us(at)})
		if shard >= len(stats) || stats[shard] == nil {
			continue
		}
		st := stats[shard]
		eng := t.add(span{Parent: root, Req: root, Name: "engine", Layer: "engine", Shard: shard,
			StartUS: t.us(at), DurUS: float64(st.TotalTime) / 1e3, Reported: true})
		cur := t.us(at)
		for _, sg := range st.Stages {
			layer, norm := layerOfStage(sg.Name)
			n := layer
			if layer == "filter" {
				n = "filter." + norm
			}
			d := float64(sg.Duration) / 1e3
			t.add(span{Parent: eng, Req: root, Name: n, Layer: layer, Shard: shard, StartUS: cur, DurUS: d, Reported: true})
			cur += d
		}
		t.add(span{Parent: eng, Req: root, Name: "refine", Layer: "refine", Shard: shard,
			StartUS: cur, DurUS: float64(st.RefineTime) / 1e3, Reported: true})
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledgerRow is one layer's mean self time per k-NN query along the
// critical path (the shard whose engine time was longest).
type ledgerRow struct {
	layer  string
	ms     float64
	source string // observed, reported, counter or remainder
}

func printLedger(w io.Writer, workload string, rows []ledgerRow) {
	var wall float64
	for _, r := range rows {
		if r.layer == "wall" {
			wall = r.ms
		}
	}
	fmt.Fprintf(w, "ledger %-10s %-22s %10s %7s  %s\n", workload, "layer", "ms/query", "share", "source")
	for _, r := range rows {
		fmt.Fprintf(w, "ledger %-10s %-22s %10.3f %6.1f%%  %s\n", workload, r.layer, r.ms, 100*ratio(r.ms, wall), r.source)
	}
}

// stageSum splits a shard's reported stage time into filter and index.
func stageSum(st *emdsearch.QueryStats) (filter, index time.Duration) {
	for _, sg := range st.Stages {
		if layer, _ := layerOfStage(sg.Name); layer == "index" {
			index += sg.Duration
		} else {
			filter += sg.Duration
		}
	}
	return filter, index
}

// layerMetrics fills the per-layer metrics and the ledger from the
// traced pass, and the tracing overhead from the two passes.
func (b *bench) layerMetrics(tp, plain passResult, st setupTimes) {
	var (
		n                                                         float64 // traced k-NN queries with stats
		wall, self, skew, scatter, engSelf, filt, idx, refine     float64
		pulled, refs, results, aborted, warm, cols, refineMS, shq float64
		idxUsed, nodes, pruned, idxEvals, idxMS                   float64
		stages                                                    = map[string]*[3]float64{} // evals, ms, pruned
	)
	for i := range tp.recs {
		r := &tp.recs[i]
		if r.kind != opKNN || r.err != nil || r.ans == nil {
			continue
		}
		b.tr.recordQuery(r)
		stats := r.ans.ShardStats
		slow, fast := -1, -1
		for s, q := range stats {
			if q == nil {
				continue
			}
			if slow < 0 || q.TotalTime > stats[slow].TotalTime {
				slow = s
			}
			if fast < 0 || q.TotalTime < stats[fast].TotalTime {
				fast = s
			}
			shq++
			pulled += float64(q.Pulled)
			refs += float64(q.Refinements)
			aborted += float64(q.RefinesAborted)
			warm += float64(q.WarmStartHits)
			cols += float64(q.RefineCols)
			refineMS += ms(q.RefineTime)
			if q.IndexUsed {
				idxUsed++
				nodes += float64(q.IndexNodesVisited)
				pruned += float64(q.IndexPruned)
			}
			for _, sg := range q.Stages {
				layer, norm := layerOfStage(sg.Name)
				if layer == "index" {
					idxEvals += float64(sg.Evaluations)
					idxMS += ms(sg.Duration)
					continue
				}
				a := stages[norm]
				if a == nil {
					a = new([3]float64)
					stages[norm] = a
				}
				a[0] += float64(sg.Evaluations)
				a[1] += ms(sg.Duration)
				a[2] += float64(sg.Pruned)
			}
		}
		if slow < 0 {
			continue
		}
		n++
		results += float64(len(r.ans.Results))
		w := ms(r.wall())
		sq := stats[slow]
		wall += w
		self += w - ms(sq.TotalTime)
		skew += ms(sq.TotalTime - stats[fast].TotalTime)
		if slow < len(r.disp) && !r.disp[slow].IsZero() {
			scatter += ms(r.disp[slow].Sub(r.sent))
		}
		f, x := stageSum(sq)
		filt += ms(f)
		idx += ms(x)
		refine += ms(sq.RefineTime)
		engSelf += ms(sq.TotalTime - f - x - sq.RefineTime)
	}
	for i := range tp.recs {
		if r := &tp.recs[i]; r.kind == opRange && r.err == nil {
			b.tr.recordQuery(r)
		}
	}

	// Gate counters over the traced pass, summed over shards.
	var admitted, queued, shed, degraded, wait float64
	for s := range tp.after.PerShard {
		a, z := tp.after.PerShard[s].Gate, tp.before.PerShard[s].Gate
		admitted += float64(a.Admitted - z.Admitted)
		queued += float64(a.Queued - z.Queued)
		shed += float64(a.Shed - z.Shed)
		degraded += float64(a.Degraded - z.Degraded)
		wait += ms(a.QueueWait - z.QueueWait)
	}
	decisions := admitted + queued + shed
	waitPerDispatch := ratio(wait, decisions)
	var colB, idxB, idxD int64
	for s := range tp.after.PerShard {
		a, z := tp.after.PerShard[s].Engine, tp.before.PerShard[s].Engine
		colB += a.ColumnBuilds - z.ColumnBuilds
		idxB += a.IndexBuilds - z.IndexBuilds
		idxD += a.IndexDeferredBuilds - z.IndexDeferredBuilds
	}
	queries := float64(len(tp.recs))

	mean := func(v float64) float64 { return ratio(v, n) }
	b.rep.ledger = []ledgerRow{
		{"wall", mean(wall), "observed: ShardSet.KNN call"},
		{"shardset.scatter", mean(scatter), "observed: call start to slowest shard's dispatch (ShardHook)"},
		{"admission.wait", waitPerDispatch, "counter: GateMetrics.QueueWait per dispatch"},
		{"engine.self", mean(engSelf), "reported: TotalTime minus stages and refinement"},
		{"filter", mean(filt), "reported: filter stage durations"},
		{"index", mean(idx), "reported: index stage duration"},
		{"refine", mean(refine), "reported: RefineTime"},
	}
	attributed := 0.0
	for _, r := range b.rep.ledger[1:] {
		attributed += r.ms
	}
	b.rep.ledger = append(b.rep.ledger, ledgerRow{"unattributed", mean(wall) - attributed, "remainder: snapshot rebuild, gather, merge, scheduling"})

	tracedP50, plainP50 := knnP50(tp.recs), knnP50(plain.recs)
	b.rep.layer = []metric{
		{name: "shardset.self_ms", value: mean(self), unit: "ms", note: "call wall time minus the slowest shard's TotalTime"},
		{name: "shardset.skew_ms", value: mean(skew), unit: "ms", note: "slowest minus fastest shard TotalTime"},
		{name: "shardset.retries_per_q", value: ratio(float64(tp.after.Retries-tp.before.Retries), queries), unit: "ratio", note: "ShardSetMetrics.Retries per operation"},
		{name: "admission.wait_ms", value: waitPerDispatch, unit: "ms", note: "GateMetrics.QueueWait per gate decision"},
		{name: "admission.queued_frac", value: ratio(queued, decisions), unit: "fraction"},
		{name: "admission.shed_frac", value: ratio(shed, decisions), unit: "fraction"},
		{name: "admission.degrade_frac", value: ratio(degraded, decisions), unit: "fraction"},
		{name: "engine.column_builds", value: float64(colB), unit: "count", note: "during the traced pass"},
		{name: "engine.index_builds", value: float64(idxB), unit: "count", note: "during the traced pass"},
		{name: "engine.index_deferred_builds", value: float64(idxD), unit: "count", note: "during the traced pass"},
		{name: "search.pulled_per_q", value: mean(pulled), unit: "count", note: "summed over shards"},
		{name: "search.refinements_per_q", value: mean(refs), unit: "count", note: "summed over shards; varies with the shared threshold's timing"},
		{name: "search.useful_frac", value: ratio(results, refs), unit: "fraction", note: "results per refinement"},
	}
	for _, st := range []string{"q-red-im", "red-im", "red-emd"} {
		a := stages[st]
		if a == nil {
			a = new([3]float64)
		}
		b.rep.layer = append(b.rep.layer,
			metric{name: "filter." + st + ".evals_per_q", value: mean(a[0]), unit: "count"},
			metric{name: "filter." + st + ".ms_per_q", value: mean(a[1]), unit: "ms"},
			metric{name: "filter." + st + ".pruned_frac", value: ratio(a[2], a[0]), unit: "fraction"},
		)
	}
	b.rep.layer = append(b.rep.layer,
		metric{name: "index.used_frac", value: ratio(idxUsed, shq), unit: "fraction", note: "shard queries served through the index"},
		metric{name: "index.nodes_per_q", value: mean(nodes), unit: "count"},
		metric{name: "index.pruned_per_q", value: mean(pruned), unit: "count"},
		metric{name: "index.evals_per_q", value: mean(idxEvals), unit: "count"},
		metric{name: "index.ms_per_q", value: mean(idxMS), unit: "ms", note: "summed over shards"},
		metric{name: "refine.ms_per_q", value: mean(refineMS), unit: "ms", note: "summed over shards"},
		metric{name: "refine.us_per_solve", value: 1000 * ratio(refineMS, refs), unit: "us"},
		metric{name: "refine.aborted_frac", value: ratio(aborted, refs), unit: "fraction"},
		metric{name: "refine.warm_frac", value: ratio(warm, refs), unit: "fraction"},
		metric{name: "refine.cols_avg", value: ratio(cols, refs), unit: "count", note: "reduced problem columns per solve"},
		metric{name: "build.add_s", value: st.add.Seconds(), unit: "s"},
		metric{name: "build.build_s", value: st.build.Seconds(), unit: "s"},
		metric{name: "build.first_query_s", value: st.first.Seconds(), unit: "s", note: "includes the lazy snapshot and index build"},
		metric{name: "ledger.wall_ms", value: mean(wall), unit: "ms"},
		metric{name: "ledger.unattributed_ms", value: mean(wall) - attributed, unit: "ms"},
		metric{name: "trace.p50_overhead_frac", value: ratio(tracedP50-plainP50, plainP50), unit: "fraction", note: fmt.Sprintf("traced p50 %.3f ms vs untraced %.3f ms", tracedP50, plainP50)},
		metric{name: "trace.spans", value: float64(len(b.tr.spans)), unit: "count"},
	)
	if b.w.kind == "open" {
		b.rep.layer = append(b.rep.layer,
			metric{name: "loadgen.late_tail_ms", value: tailOf(tp.load.late), unit: "ms", note: "generator lateness against its schedule"},
			metric{name: "loadgen.inflight_max", value: float64(tp.load.inflightMax), unit: "count"},
		)
		for i, r := range ladder(tp.recs, b.cfg.scale.openRates, b.cfg.seconds) {
			b.rep.layer = append(b.rep.layer,
				metric{name: fmt.Sprintf("loadgen.rate%d.tail_ms", i), value: r.tail, unit: "ms",
					note: fmt.Sprintf("%.0f/s, answered requests, p%.1f", r.rate, r.tailPct)},
				metric{name: fmt.Sprintf("loadgen.rate%d.miss_frac", i), value: ratio(float64(r.n-r.exact), float64(r.n)), unit: "fraction",
					note: fmt.Sprintf("%.0f/s: shed, timed out or degraded", r.rate)})
		}
	}
}

func knnP50(recs []opRec) float64 {
	var lat dist
	for i := range recs {
		if r := &recs[i]; r.kind == opKNN && r.exact() {
			lat.add(r.latency())
		}
	}
	return lat.median()
}

// layerCatalog lists every per-layer metric a traced run emits, in
// BENCHMARK.json order. A layer a workload does not exercise reports 0.
var layerCatalog = []struct{ name, unit string }{
	{"shardset.self_ms", "ms"},
	{"shardset.skew_ms", "ms"},
	{"shardset.retries_per_q", "ratio"},
	{"admission.wait_ms", "ms"},
	{"admission.queued_frac", "fraction"},
	{"admission.shed_frac", "fraction"},
	{"admission.degrade_frac", "fraction"},
	{"engine.snapshot_builds_per_mut", "ratio"},
	{"engine.column_builds", "count"},
	{"engine.index_builds", "count"},
	{"engine.index_deferred_builds", "count"},
	{"search.pulled_per_q", "count"},
	{"search.refinements_per_q", "count"},
	{"search.useful_frac", "fraction"},
	{"filter.q-red-im.evals_per_q", "count"},
	{"filter.q-red-im.ms_per_q", "ms"},
	{"filter.q-red-im.pruned_frac", "fraction"},
	{"filter.red-im.evals_per_q", "count"},
	{"filter.red-im.ms_per_q", "ms"},
	{"filter.red-im.pruned_frac", "fraction"},
	{"filter.red-emd.evals_per_q", "count"},
	{"filter.red-emd.ms_per_q", "ms"},
	{"filter.red-emd.pruned_frac", "fraction"},
	{"index.used_frac", "fraction"},
	{"index.nodes_per_q", "count"},
	{"index.pruned_per_q", "count"},
	{"index.evals_per_q", "count"},
	{"index.ms_per_q", "ms"},
	{"refine.ms_per_q", "ms"},
	{"refine.us_per_solve", "us"},
	{"refine.aborted_frac", "fraction"},
	{"refine.warm_frac", "fraction"},
	{"refine.cols_avg", "count"},
	{"persist.add_ms", "ms"},
	{"persist.delete_ms", "ms"},
	{"persist.checkpoint_ms", "ms"},
	{"persist.replayed", "count"},
	{"persist.wal_bytes_per_mut", "B"},
	{"persist.snap_bytes_per_item", "B"},
	{"replica.lag_max", "count"},
	{"replica.catchup_ms", "ms"},
	{"build.add_s", "s"},
	{"build.build_s", "s"},
	{"build.first_query_s", "s"},
	{"loadgen.late_tail_ms", "ms"},
	{"loadgen.inflight_max", "count"},
	{"loadgen.rate0.tail_ms", "ms"},
	{"loadgen.rate0.miss_frac", "fraction"},
	{"loadgen.rate1.tail_ms", "ms"},
	{"loadgen.rate1.miss_frac", "fraction"},
	{"loadgen.rate2.tail_ms", "ms"},
	{"loadgen.rate2.miss_frac", "fraction"},
	{"loadgen.rate3.tail_ms", "ms"},
	{"loadgen.rate3.miss_frac", "fraction"},
	{"ledger.wall_ms", "ms"},
	{"ledger.unattributed_ms", "ms"},
	{"trace.p50_overhead_frac", "fraction"},
	{"trace.spans", "count"},
}

// completeLayer orders the measured per-layer metrics by the catalog
// and adds a 0 for every catalog metric the workload did not exercise.
func completeLayer(measured []metric) []metric {
	got := map[string]metric{}
	for _, m := range measured {
		got[m.name] = m
	}
	out := make([]metric, 0, len(layerCatalog))
	for _, c := range layerCatalog {
		m, ok := got[c.name]
		if !ok {
			m = metric{name: c.name, unit: c.unit, note: "not exercised by this workload"}
		}
		out = append(out, m)
	}
	return out
}
