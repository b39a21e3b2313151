package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"emdsearch"
	"emdsearch/internal/data"
)

// k is the neighbour count of every k-NN query.
const k = 10

// scale fixes corpus and sample sizes; fullScale is the benchmark's,
// the tests use a tiny one.
type scale struct {
	colorItems  int // database items of the color corpus
	mixItems    int // database items of the mixture corpus
	pool        int // held-out k-NN queries, cycled through in order
	fixedTruth  int // queries with exhaustive ground truth, the same for every seed; color-knn's range queries cycle over them
	seededTruth int // pool queries drawn by the seed with exhaustive ground truth besides
	churnAdds   int // held-out items the churn writer inserts (cycled)
	colorSetups int // set-ups per run on the color corpus (median reported)
	churnPeriod time.Duration
	checkpoint  int // churn steps between checkpoints
	openRates   []float64
	sampled     int // answers per run whose distances are re-derived exhaustively
}

var fullScale = scale{
	colorItems:  2000,
	mixItems:    8400,
	pool:        512,
	fixedTruth:  8,
	seededTruth: 4,
	churnAdds:   512,
	colorSetups: 3,
	churnPeriod: 50 * time.Millisecond,
	checkpoint:  20,
	openRates:   []float64{8, 16, 24, 32},
	sampled:     16,
}

// workload is one traffic mix over one corpus.
type workload struct {
	corpus string // "color" or "mix"
	kind   string // "closed", "open" or "churn"
	// rangeEvery makes every rangeEvery-th operation of a closed loop a
	// range query (0: k-NN only).
	rangeEvery int
}

// A closed loop is one client. With two, color-knn's qps ranged
// 25.8-48.0 over seeds 1-10 (p50 and qps spreads 0.35 and 0.37, above
// any bound a metric may have); with one, 20.7-25.3 over seeds 1-6. On
// mix-index, five seeds run alternately with one and two clients read
// qps 31.5-33.3 with one and 36.2-46.1 with two.
var workloads = map[string]workload{
	"color-knn":  {corpus: "color", kind: "closed", rangeEvery: 8},
	"mix-index":  {corpus: "mix", kind: "closed"},
	"mix-churn":  {corpus: "mix", kind: "churn"},
	"color-open": {corpus: "color", kind: "open"},
}

// openDeadline is each open-loop query's deadline, the emdserve
// default, and the latency limit of the open-loop ladder.
const openDeadline = 100 * time.Millisecond

// openBelowCapacity is the number of ladder rates below the colour
// corpus's capacity (about 25-30 queries/s on the 2-core probe machine);
// the gated open-loop p50 is taken over them. Fixed, never recalibrated
// per run.
const openBelowCapacity = 2

// bench holds one run's inputs and state.
type bench struct {
	cfg     config
	w       workload
	engOpts emdsearch.Options
	cost    emdsearch.CostMatrix
	db      []emdsearch.Histogram // initial database; global id = index
	labels  []string
	pool    []emdsearch.Histogram // held-out queries
	adds    []emdsearch.Histogram // held-out churn inserts
	truth   []truthSet            // ground truth of pool[:len(truth)] over db
	set     *emdsearch.ShardSet
	tr      *tracer
	churn   *churnState // mix-churn only
	rep     *report
	start   time.Time // run start, the origin of span timestamps
}

// newBench generates the workload's inputs: the fixed colour and
// mixture corpora (see corpusSeed), and, from the seed, the order of
// the held-out queries and churn inserts. Data generation is not part
// of any timed phase.
func newBench(cfg config, w workload) (*bench, error) {
	sc := cfg.scale
	b := &bench{cfg: cfg, w: w, rep: &report{workload: cfg.workload, trace: cfg.trace, prov: newProvenance(cfg)}, start: time.Now()}
	nHeld := sc.pool
	if w.kind == "churn" {
		nHeld += sc.churnAdds
	}
	var ds *data.Dataset
	var err error
	var items int // database size
	switch w.corpus {
	case "color":
		items = sc.colorItems
		ds, err = data.ColorImages(items+nHeld, corpusSeed)
		b.engOpts = emdsearch.Options{ReducedDims: 8}
	case "mix":
		items = sc.mixItems
		ds, err = mixtures(items+nHeld, corpusSeed)
		b.engOpts = emdsearch.Options{ReducedDims: 16}
	default:
		return nil, fmt.Errorf("unknown corpus %q", w.corpus)
	}
	if err != nil {
		return nil, err
	}
	db, held, err := ds.Split(len(ds.Items) - items)
	if err != nil {
		return nil, err
	}
	b.cost, b.db = ds.Cost, db
	for _, it := range ds.Items[:len(db)] {
		b.labels = append(b.labels, it.Label)
	}
	// The first sc.fixedTruth held-out items are ground-truth queries
	// (and color-knn's range queries) for every seed. The seed shuffles
	// them among themselves and the rest among themselves: it fixes the
	// query order, the seededTruth further ground-truth queries, and
	// which held-out items are queries and which churn inserts.
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	truth, rest := held[:sc.fixedTruth], held[sc.fixedTruth:]
	rng.Shuffle(len(truth), func(i, j int) { truth[i], truth[j] = truth[j], truth[i] })
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	b.pool, b.adds = held[:sc.pool], held[sc.pool:nHeld]
	return b, nil
}

// Both corpora are the same for every seed: they are generated from
// corpusSeed, and the run's seed orders the held-out items (see
// newBench). The pool holds more queries than one run issues, so a run
// sees few repeats. On the colour corpus, with a database per seed, 3 of
// 10 seeds ran at 1.5x the k-NN p50 of the others (seed 2 needed 29%
// more refinements per query than seed 1, its Red-IM filter pruning 55%
// of candidates instead of 60%), a spread of 0.50 that no bound could
// hold; on the mixture corpus, mix-index's k-NN p50 and qps spreads
// reached 0.31 and 0.25, as how well the M-tree prunes depends on the
// database. Query costs are uneven too (colour k-NN deciles 9-97 ms),
// so a pool drawn per seed from a larger held-out set still showed:
// with 256 colour queries out of 1024, one seed's queries needed 140
// refinements per query and another's 113. color-knn's range queries
// are fixed too (fixedTruth, see newBench): with eight drawn per seed,
// their median latency ranged 14-63 ms across ten seeds, and qps
// followed it (19.5/s at 63 ms, 26.1/s at 14 ms).
const corpusSeed = 1

// mixParts is the number of independent GaussianMixtures draws the
// mixture corpus is the union of. One draw has only 5 classes, and how
// well the index prunes then depends a lot on their prototypes (about
// 2x in k-NN throughput between generator seeds); a union of 16 draws
// (80 classes) keeps the database typical rather than a lucky or an
// unlucky draw.
const mixParts = 16

// mixtures generates n items as the union of mixParts
// GaussianMixtures(d=32, modes=2) draws, interleaved so that every
// split keeps the mix. All draws share the cost matrix (it depends on d
// only).
func mixtures(n int, seed int64) (*data.Dataset, error) {
	var parts []*data.Dataset
	for j := 0; j < mixParts; j++ {
		ds, err := data.GaussianMixtures((n+mixParts-1)/mixParts, 32, 2, seed*mixParts+int64(j))
		if err != nil {
			return nil, err
		}
		parts = append(parts, ds)
	}
	out := *parts[0]
	out.Items = make([]data.Item, 0, n)
	for i := 0; len(out.Items) < n; i++ {
		p := parts[i%mixParts]
		it := p.Items[i/mixParts]
		it.Label = fmt.Sprintf("%d/%s", i%mixParts, it.Label)
		out.Items = append(out.Items, it)
	}
	return &out, nil
}

// setOptions returns the ShardSet options of this workload: two shards
// with default gates, the retry jitter seeded, and the dispatch hook
// installed only in a traced run.
func (b *bench) setOptions() emdsearch.ShardSetOptions {
	o := emdsearch.ShardSetOptions{Shards: 2, Seed: b.cfg.seed}
	if b.w.kind == "churn" {
		o.Replicas = 1
	}
	if b.tr != nil {
		o.ShardHook = b.tr.hook
	}
	return o
}

// setupTimes are one set-up's phases.
type setupTimes struct {
	add, build, first, total time.Duration
}

// setup builds a fresh set over the initial database: NewShardSet,
// every Add, Build and the first answered query.
func (b *bench) setup() (*emdsearch.ShardSet, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	set, err := emdsearch.NewShardSet(b.cost, b.engOpts, b.setOptions())
	if err != nil {
		return nil, st, err
	}
	for i, h := range b.db {
		if _, err := set.Add(b.labels[i], h); err != nil {
			return nil, st, fmt.Errorf("add %d: %w", i, err)
		}
	}
	t1 := time.Now()
	if err := set.Build(); err != nil {
		return nil, st, err
	}
	b.tr.root("Build", "build", t1, time.Now())
	t2 := time.Now()
	if _, err := set.KNN(context.Background(), b.pool[0], k); err != nil {
		return nil, st, fmt.Errorf("first query: %w", err)
	}
	t3 := time.Now()
	st = setupTimes{add: t1.Sub(t0), build: t2.Sub(t1), first: t3.Sub(t2), total: t3.Sub(t0)}
	return set, st, nil
}

// setupRepeated runs n set-ups, keeps the last set, and returns the
// median of each phase.
func (b *bench) setupRepeated(n int) (setupTimes, error) {
	var add, build, first, total dist
	for i := 0; i < n; i++ {
		if b.set != nil {
			b.set.Close()
			b.set = nil
		}
		set, st, err := b.setup()
		if err != nil {
			return setupTimes{}, err
		}
		b.set = set
		add.add(st.add)
		build.add(st.build)
		first.add(st.first)
		total.add(st.total)
	}
	sec := func(d dist) time.Duration { return time.Duration(d.median() * float64(time.Millisecond)) }
	return setupTimes{add: sec(add), build: sec(build), first: sec(first), total: sec(total)}, nil
}

// heapMB reports the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// opKind is the kind of a query operation.
type opKind uint8

const (
	opKNN opKind = iota
	opRange
)

// opRec is one query operation's outcome.
type opRec struct {
	kind  opKind
	q     int       // index into pool
	eps   float64   // range radius
	due   time.Time // when the operation was due (open loop) or issued
	sent  time.Time // when the call was made
	done  time.Time
	ans   *emdsearch.ShardAnswer
	rans  *emdsearch.ShardRangeAnswer
	err   error
	rung  int // open-loop ladder rung
	floor int // churn: deletes acknowledged before the call (gids below are gone)
	disp  []time.Time
}

func (r *opRec) latency() time.Duration { return r.done.Sub(r.due) }
func (r *opRec) wall() time.Duration    { return r.done.Sub(r.sent) }

func (r *opRec) degraded() bool {
	switch {
	case r.ans != nil:
		return r.ans.Degraded
	case r.rans != nil:
		return r.rans.Degraded
	}
	return false
}

// exact reports an answer that is complete (not degraded, no error).
func (r *opRec) exact() bool { return r.err == nil && !r.degraded() }

// shed reports the typed overload rejection.
func (r *opRec) shed() bool {
	return errors.Is(r.err, emdsearch.ErrOverloaded) || errors.Is(r.err, errClientDropped)
}

// timedOut reports a query whose deadline expired before any shard served.
func (r *opRec) timedOut() bool { return errors.Is(r.err, context.DeadlineExceeded) }

func (r *opRec) shardStats() []*emdsearch.QueryStats {
	switch {
	case r.ans != nil:
		return r.ans.ShardStats
	case r.rans != nil:
		return r.rans.ShardStats
	}
	return nil
}

var errClientDropped = errors.New("open-loop client: in-flight cap reached")

// query issues one operation through the set, traced when traced is set.
func (b *bench) query(ctx context.Context, rec *opRec, traced bool) {
	var rt *reqTrace
	if traced {
		rt = &reqTrace{disp: make([]time.Time, b.set.Shards())}
		ctx = withReqTrace(ctx, rt)
	}
	rec.sent = time.Now()
	switch rec.kind {
	case opKNN:
		rec.ans, rec.err = b.set.KNN(ctx, b.pool[rec.q], k)
	case opRange:
		rec.rans, rec.err = b.set.Range(ctx, b.pool[rec.q], rec.eps)
	}
	rec.done = time.Now()
	if rt != nil {
		rec.disp = rt.dispatches()
	}
}

// closedLoop runs one closed-loop client for d. Its i-th operation
// queries pool[i mod len(pool)]; with rangeEvery > 0 every
// rangeEvery-th operation is instead a range query over a fixed
// ground-truth query, with eps its true k-th neighbour distance.
func (b *bench) closedLoop(d time.Duration, traced bool) ([]opRec, time.Duration) {
	var recs []opRec
	start := time.Now()
	stop := start.Add(d)
	for i := 0; time.Now().Before(stop); i++ {
		rec := opRec{kind: opKNN, q: i % len(b.pool)}
		if e := b.w.rangeEvery; e > 0 && i%e == e-1 {
			t := (i / e) % b.cfg.scale.fixedTruth
			rec = opRec{kind: opRange, q: t, eps: b.truth[t].eps()}
		}
		rec.due = time.Now()
		b.query(context.Background(), &rec, traced)
		recs = append(recs, rec)
	}
	return recs, time.Since(start)
}

// rungCount is the number of requests each ladder rate offers in d:
// every rate gets the same count, so each rung lasts count/rate and the
// low rates, whose latency is gated, get as many samples as the high
// ones.
func rungCount(rates []float64, d time.Duration) int {
	var per float64 // seconds one request of every rate takes
	for _, r := range rates {
		per += 1 / r
	}
	return int(d.Seconds() / per)
}

// openLoop drives the ladder of offered rates from one generator, one
// rung after the other, each offering rungCount requests. Arrivals are
// evenly spaced; each request runs on its own goroutine with a deadline
// openDeadline after its due time, and its latency is timed from that
// due time. In-flight requests are capped at maxInflight; a request over
// the cap is dropped and counted as shed.
func (b *bench) openLoop(rates []float64, d time.Duration, traced bool) ([]opRec, loadStats) {
	const maxInflight = 64
	n := rungCount(rates, d)
	var (
		mu       sync.Mutex
		recs     []opRec
		wg       sync.WaitGroup
		inflight atomic.Int64
		ls       loadStats
	)
	sem := make(chan struct{}, maxInflight)
	start := time.Now()
	seq := 0
	rungStart := start
	for r, rate := range rates {
		for j := 0; j < n; j++ {
			due := rungStart.Add(time.Duration(float64(j) / rate * float64(time.Second)))
			time.Sleep(time.Until(due))
			ls.late.add(time.Since(due))
			rec := opRec{kind: opKNN, q: seq % len(b.pool), due: due, rung: r}
			seq++
			select {
			case sem <- struct{}{}:
			default:
				rec.sent, rec.done, rec.err = due, time.Now(), errClientDropped
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
				continue
			}
			if v := inflight.Add(1); v > ls.inflightMax {
				ls.inflightMax = v // only the generator goroutine writes inflightMax
			}
			wg.Add(1)
			go func(rec opRec) {
				defer wg.Done()
				ctx, cancel := context.WithDeadline(context.Background(), rec.due.Add(openDeadline))
				b.query(ctx, &rec, traced)
				cancel()
				inflight.Add(-1)
				<-sem
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}(rec)
		}
		rungStart = rungStart.Add(time.Duration(float64(n) / rate * float64(time.Second)))
	}
	wg.Wait()
	sort.Slice(recs, func(i, j int) bool { return recs[i].due.Before(recs[j].due) })
	return recs, ls
}

// loadStats describes how faithfully a load generator kept its schedule.
type loadStats struct {
	late        dist // send time minus due time
	inflightMax int64
}

// truthSet is one query's exhaustive ground truth over a database.
type truthSet struct {
	knn  []emdsearch.Result // exact k-NN, (Dist, Index) order
	all  []emdsearch.Result // every live item's exact distance, (Dist, Index) order
	dist map[int]float64    // every live item's exact distance by global id
}

// eps is the range radius of a ground-truth query: its true k-th
// neighbour distance.
func (t truthSet) eps() float64 { return t.knn[len(t.knn)-1].Dist }

// groundTruth computes the exact distance from each query to every
// live item with emdsearch.EMD, on two goroutines.
func groundTruth(cost emdsearch.CostMatrix, queries []emdsearch.Histogram, items func(gid int) (emdsearch.Histogram, bool), n int) ([]truthSet, error) {
	out := make([]truthSet, len(queries))
	for qi, q := range queries {
		dists := make([]float64, n)
		alive := make([]bool, n)
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for gid := w; gid < n; gid += 2 {
					h, ok := items(gid)
					if !ok {
						continue
					}
					d, err := emdsearch.EMD(q, h, cost)
					if err != nil {
						errs[w] = fmt.Errorf("ground truth item %d: %w", gid, err)
						return
					}
					dists[gid], alive[gid] = d, true
				}
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		var all []emdsearch.Result
		for gid, ok := range alive {
			if ok {
				all = append(all, emdsearch.Result{Index: gid, Dist: dists[gid]})
			}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Dist != all[j].Dist {
				return all[i].Dist < all[j].Dist
			}
			return all[i].Index < all[j].Index
		})
		kk := k
		if kk > len(all) {
			kk = len(all)
		}
		byID := make(map[int]float64, len(all))
		for _, r := range all {
			byID[r.Index] = r.Dist
		}
		out[qi] = truthSet{knn: all[:kk], all: all, dist: byID}
	}
	return out, nil
}

// dbItem returns the initial database's item gid.
func (b *bench) dbItem(gid int) (emdsearch.Histogram, bool) { return b.db[gid], true }

// run executes one benchmark run.
func run(cfg config) (*report, error) {
	w := workloads[cfg.workload]
	b, err := newBench(cfg, w)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		b.tr = newTracer(b.start)
	}
	switch w.kind {
	case "closed":
		err = b.runClosed()
	case "open":
		err = b.runOpen()
	case "churn":
		err = b.runChurn()
	}
	if b.set != nil {
		b.set.Close()
	}
	if err != nil {
		return nil, err
	}
	for _, m := range b.rep.e2e {
		if !(m.value > 0) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("end-to-end metric %s = %v: not a positive finite measurement", m.name, m.value)
		}
	}
	if b.tr != nil {
		b.rep.layer = completeLayer(b.rep.layer)
		path := filepath.Join(cfg.scratch, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		b.rep.spansPath = path
	}
	return b.rep, nil
}

// truthQueries returns the queries with exhaustive ground truth: the
// fixed ones, then the seeded ones.
func (b *bench) truthQueries() []emdsearch.Histogram {
	return b.pool[:b.cfg.scale.fixedTruth+b.cfg.scale.seededTruth]
}

// prepareTruth computes the ground truth of the sampled queries over
// the initial database (outside every timed window).
func (b *bench) prepareTruth() error {
	t, err := groundTruth(b.cost, b.truthQueries(), b.dbItem, len(b.db))
	b.truth = t
	return err
}

// setupCount is the number of set-ups a run times. The mixture corpus
// gets one: its M-tree build alone takes ~13 s, and more would not fit
// the run budget.
func (b *bench) setupCount() int {
	if b.w.corpus == "color" {
		return b.cfg.scale.colorSetups
	}
	return 1
}

// runClosed runs a closed-loop read workload (color-knn, mix-index).
func (b *bench) runClosed() error {
	st, err := b.setupRepeated(b.setupCount())
	if err != nil {
		return err
	}
	heap := heapMB() // before the ground truth, which the oracle keeps live
	if err := b.prepareTruth(); err != nil {
		return err
	}
	var recs []opRec
	pass := func(traced bool) (passResult, error) {
		before := b.set.Metrics()
		rs, elapsed := b.closedLoop(b.cfg.seconds, traced)
		recs = append(recs, rs...)
		return passResult{recs: rs, elapsed: elapsed, before: before, after: b.set.Metrics()}, nil
	}
	plain, traced, err := b.passes(pass)
	if err != nil {
		return err
	}
	b.rep.e2e = []metric{
		{name: "setup_s", value: st.total.Seconds(), unit: "s", note: fmt.Sprintf("median of %d set-ups", b.setupCount())},
	}
	gated, tail := closedMetrics(plain)
	b.rep.e2e = append(b.rep.e2e, gated...)
	b.rep.e2e = append(b.rep.e2e, metric{name: "heap_mb", value: heap, unit: "MB", note: "live heap after set-up"})
	b.rep.extra = append(b.rep.extra, tail)
	b.rep.extra = append(b.rep.extra, rangeMetrics(plain)...)
	b.rep.extra = append(b.rep.extra, outcomeMetrics(plain.recs)...)
	if traced != nil {
		b.layerMetrics(*traced, plain, st)
	}
	b.checkReads(recs, true)
	return nil
}

// passResult is one measured pass.
type passResult struct {
	recs          []opRec
	elapsed       time.Duration
	before, after emdsearch.ShardSetMetrics
	load          loadStats
	churn         *churnPass
}

// passes runs the untraced pass and, in a traced run, a traced pass
// after it.
func (b *bench) passes(pass func(traced bool) (passResult, error)) (plain passResult, traced *passResult, err error) {
	plain, err = pass(false)
	if err != nil || b.tr == nil {
		return plain, nil, err
	}
	t, err := pass(true)
	return plain, &t, err
}

// closedMetrics computes qps and the k-NN median (gated), and the
// k-NN tail (printed: its spread across seeds exceeds the largest bound
// a metric may have, see README.md).
func closedMetrics(p passResult) (gated []metric, tail metric) {
	var lat dist
	exact := 0
	for i := range p.recs {
		r := &p.recs[i]
		if r.exact() {
			exact++
			if r.kind == opKNN {
				lat.add(r.latency())
			}
		}
	}
	t, pct := lat.tail()
	return []metric{
			{name: "qps", value: float64(exact) / p.elapsed.Seconds(), unit: "1/s", note: fmt.Sprintf("exact answers over %.2fs", p.elapsed.Seconds())},
			{name: "p50_ms", value: lat.median(), unit: "ms", note: fmt.Sprintf("k-NN median, n=%d", len(lat))},
		},
		metric{name: "tail_ms", value: t, unit: "ms", note: fmt.Sprintf("k-NN p%.1f, n=%d", pct, len(lat))}
}

func rangeMetrics(p passResult) []metric {
	var lat dist
	for i := range p.recs {
		if r := &p.recs[i]; r.kind == opRange && r.exact() {
			lat.add(r.latency())
		}
	}
	if len(lat) == 0 {
		return nil
	}
	tail, pct := lat.tail()
	return []metric{
		{name: "range_p50_ms", value: lat.median(), unit: "ms", note: fmt.Sprintf("range median, n=%d", len(lat))},
		{name: "range_tail_ms", value: tail, unit: "ms", note: fmt.Sprintf("range p%.1f, n=%d", pct, len(lat))},
	}
}

// outcomeMetrics counts failed (errors, shed requests) and degraded
// answers against the operations attempted.
func outcomeMetrics(recs []opRec) []metric {
	failed, degraded := 0, 0
	for i := range recs {
		r := &recs[i]
		switch {
		case r.err != nil:
			failed++
		case r.degraded():
			degraded++
		}
	}
	n := float64(len(recs))
	return []metric{
		{name: "failed_frac", value: ratio(float64(failed), n), unit: "fraction", note: fmt.Sprintf("%d of %d operations errored or were shed", failed, len(recs))},
		{name: "degraded_frac", value: ratio(float64(degraded), n), unit: "fraction", note: fmt.Sprintf("%d of %d answers certified Degraded", degraded, len(recs))},
	}
}

// runOpen runs the open-loop ladder (color-open).
func (b *bench) runOpen() error {
	st, err := b.setupRepeated(b.setupCount())
	if err != nil {
		return err
	}
	heap := heapMB() // before the ground truth, which the oracle keeps live
	if err := b.prepareTruth(); err != nil {
		return err
	}
	rates := b.cfg.scale.openRates
	var recs []opRec
	pass := func(traced bool) (passResult, error) {
		before := b.set.Metrics()
		rs, ls := b.openLoop(rates, b.cfg.seconds, traced)
		recs = append(recs, rs...)
		return passResult{recs: rs, elapsed: b.cfg.seconds, before: before, after: b.set.Metrics(), load: ls}, nil
	}
	plain, traced, err := b.passes(pass)
	if err != nil {
		return err
	}
	rungs := ladder(plain.recs, rates, b.cfg.seconds)
	top := rungs[len(rungs)-1]
	var lat, low dist
	exact := 0
	for i := range plain.recs {
		r := &plain.recs[i]
		if r.err == nil {
			lat.add(r.latency())
			if r.rung < openBelowCapacity {
				low.add(r.latency())
			}
		}
		if r.exact() {
			exact++
		}
	}
	tail, pct := lat.tail()
	b.rep.e2e = []metric{
		{name: "setup_s", value: st.total.Seconds(), unit: "s", note: fmt.Sprintf("median of %d set-ups", b.setupCount())},
		{name: "qps", value: float64(exact) / b.cfg.seconds.Seconds(), unit: "1/s", note: fmt.Sprintf("exact answers per second over the whole ladder, %d of %d offered", exact, len(plain.recs))},
		{name: "p50_ms", value: low.median(), unit: "ms", note: fmt.Sprintf("k-NN median from due time at %v/s, answered requests, n=%d", rates[:openBelowCapacity], len(low))},
		{name: "heap_mb", value: heap, unit: "MB", note: "live heap after set-up"},
	}
	b.rep.extra = append(b.rep.extra,
		metric{name: "tail_ms", value: tail, unit: "ms", note: fmt.Sprintf("k-NN p%.1f from due time, answered requests of the ladder, n=%d", pct, len(lat))},
		metric{name: "top_goodput_qps", value: top.goodput, unit: "1/s", note: fmt.Sprintf("exact answers per second at the top rate %.0f/s", top.rate)},
	)
	maxRate := 0.0
	for _, r := range rungs {
		if r.meets {
			maxRate = r.rate
		}
		b.rep.extra = append(b.rep.extra, metric{
			name: fmt.Sprintf("rate%.0f.tail_ms", r.rate), value: r.missTail, unit: "ms",
			note: fmt.Sprintf("p%.1f with misses as +Inf, n=%d, exact=%d degraded=%d shed=%d timeout=%d meets=%v", r.missPct, r.n, r.exact, r.degraded, r.shed, r.timeout, r.meets),
		})
	}
	b.rep.extra = append(b.rep.extra, metric{name: "max_rate_qps", value: maxRate, unit: "1/s",
		note: fmt.Sprintf("highest rate with tail <= %v and no misses beyond the tail", openDeadline)})
	b.rep.extra = append(b.rep.extra, outcomeMetrics(plain.recs)...)
	if traced != nil {
		b.layerMetrics(*traced, plain, st)
	}
	b.checkReads(recs, true)
	return nil
}

// rungResult is one open-loop ladder rate's outcome.
type rungResult struct {
	rate                              float64
	n, exact, degraded, shed, timeout int
	goodput                           float64
	tail, tailPct                     float64 // answered requests
	missTail, missPct                 float64 // failed and degraded count as +Inf
	meets                             bool
}

func ladder(recs []opRec, rates []float64, d time.Duration) []rungResult {
	n := rungCount(rates, d)
	out := make([]rungResult, len(rates))
	lats := make([]dist, len(rates))
	miss := make([]dist, len(rates))
	for i := range rates {
		out[i].rate = rates[i]
	}
	for i := range recs {
		r := &recs[i]
		o := &out[r.rung]
		o.n++
		lat := ms(r.latency())
		switch {
		case r.shed():
			o.shed++
		case r.err != nil:
			o.timeout++
		case r.degraded():
			o.degraded++
		default:
			o.exact++
		}
		if r.err == nil {
			lats[r.rung] = append(lats[r.rung], lat)
		}
		if !r.exact() {
			lat = math.Inf(1)
		}
		miss[r.rung] = append(miss[r.rung], lat)
	}
	for i := range out {
		o := &out[i]
		o.goodput = float64(o.exact) * o.rate / float64(n)
		o.tail, o.tailPct = lats[i].tail()
		o.missTail, o.missPct = miss[i].tail()
		o.meets = o.missTail <= ms(openDeadline)
	}
	return out
}
