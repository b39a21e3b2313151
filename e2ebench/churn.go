package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"emdsearch"
)

// churnState is the mix-churn write path: the WAL directory and every
// acknowledged mutation.
type churnState struct {
	dir   string
	steps int // writer steps acknowledged so far; step i added gid len(db)+i and deleted gid i
	// deleted counts acknowledged deletes: gids below it are gone.
	deleted atomic.Int64
	mut     []mutRec
	lagMax  int64
}

// mutRec is one writer step: Add one held-out item, then Delete the
// oldest live initial item.
type mutRec struct {
	due      time.Time
	done     time.Time
	add, del time.Duration
}

// churnPass is what one churn pass measured.
type churnPass struct {
	mut        []mutRec
	ckpt       dist
	catchup    time.Duration
	late       dist
	lagMax     int64
	mutations  int
	snapBuilds int64 // primaries' snapshot builds during the pass
}

func (b *bench) addedItem(i int) emdsearch.Histogram { return b.adds[i%len(b.adds)] }

func addedLabel(i int) string { return fmt.Sprintf("churn-%d", i) }

// liveItem returns item gid of the expected post-churn database.
func (b *bench) liveItem(cs *churnState) func(gid int) (emdsearch.Histogram, bool) {
	return func(gid int) (emdsearch.Histogram, bool) {
		if gid < cs.steps {
			return nil, false
		}
		if gid < len(b.db) {
			return b.db[gid], true
		}
		return b.addedItem(gid - len(b.db)), true
	}
}

// churnSetup builds the durable replicated set: set-up, a first
// checkpoint (so recovery starts from a snapshot), the WAL opened, and
// the followers caught up.
func (b *bench) churnSetup(cs *churnState) (setupTimes, time.Duration, error) {
	st, err := b.setupRepeated(1)
	if err != nil {
		return st, 0, err
	}
	t0 := time.Now()
	if err := b.set.Checkpoint(cs.dir); err != nil {
		return st, 0, err
	}
	b.tr.root("Checkpoint", "persist", t0, time.Now())
	if err := b.set.OpenWAL(cs.dir); err != nil {
		return st, 0, err
	}
	t1 := time.Now()
	if err := b.set.WaitReplicasCaughtUp(context.Background()); err != nil {
		return st, 0, err
	}
	catchup := time.Since(t1)
	st.total += time.Since(t0)
	return st, catchup, nil
}

// churnPassRun runs one pass: an open-loop writer on a fixed period
// and one closed-loop reader, both for d.
func (b *bench) churnPassRun(cs *churnState, d time.Duration, traced bool) (passResult, error) {
	sc := b.cfg.scale
	before := b.set.Metrics()
	start := time.Now()
	stop := start.Add(d)
	var (
		wg      sync.WaitGroup
		reads   []opRec
		werr    error
		cp      churnPass
		firstMu = len(cs.mut)
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(stop); i++ {
			rec := opRec{kind: opKNN, q: i % len(b.pool), floor: int(cs.deleted.Load())}
			rec.due = time.Now()
			b.query(context.Background(), &rec, traced)
			reads = append(reads, rec)
		}
	}()
	go func() {
		defer wg.Done()
		for j := 0; ; j++ {
			due := start.Add(time.Duration(j) * sc.churnPeriod)
			if !due.Before(stop) {
				return
			}
			time.Sleep(time.Until(due))
			cp.late.add(time.Since(due))
			if err := b.churnStep(cs, due, traced); err != nil {
				werr = err
				return
			}
			for i := 0; i < b.set.Shards(); i++ {
				if r, ok := b.set.Replica(i); ok && r.Lag > cs.lagMax {
					cs.lagMax = r.Lag
				}
			}
			// Checkpoint half an interval out of phase with the pass, so
			// every pass ends with half an interval of mutations that
			// only the WAL holds and recovery must replay.
			if cs.steps%sc.checkpoint == sc.checkpoint/2 {
				t0 := time.Now()
				if err := b.set.Checkpoint(cs.dir); err != nil {
					werr = err
					return
				}
				t1 := time.Now()
				cp.ckpt.add(t1.Sub(t0))
				if traced {
					b.tr.root("Checkpoint", "persist", t0, t1)
				}
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	if werr != nil {
		return passResult{}, werr
	}
	t0 := time.Now()
	if err := b.set.WaitReplicasCaughtUp(context.Background()); err != nil {
		return passResult{}, err
	}
	cp.catchup = time.Since(t0)
	cp.mut = cs.mut[firstMu:]
	cp.mutations = 2 * len(cp.mut)
	cp.lagMax = cs.lagMax
	after := b.set.Metrics()
	for i := range after.PerShard {
		cp.snapBuilds += after.PerShard[i].Engine.SnapshotBuilds - before.PerShard[i].Engine.SnapshotBuilds
	}
	return passResult{recs: reads, elapsed: elapsed, before: before, after: after, churn: &cp, load: loadStats{late: cp.late}}, nil
}

// churnStep adds the next held-out item and deletes the oldest live
// initial item, recording both acknowledgements.
func (b *bench) churnStep(cs *churnState, due time.Time, traced bool) error {
	i := cs.steps
	t0 := time.Now()
	gid, err := b.set.Add(addedLabel(i), b.addedItem(i))
	if err != nil {
		return fmt.Errorf("churn add %d: %w", i, err)
	}
	if gid != len(b.db)+i {
		return fmt.Errorf("churn add %d: got global id %d, want %d", i, gid, len(b.db)+i)
	}
	t1 := time.Now()
	if err := b.set.Delete(i); err != nil {
		return fmt.Errorf("churn delete %d: %w", i, err)
	}
	t2 := time.Now()
	cs.steps++
	cs.deleted.Store(int64(cs.steps))
	cs.mut = append(cs.mut, mutRec{due: due, done: t2, add: t1.Sub(t0), del: t2.Sub(t1)})
	if traced {
		b.tr.root("Add", "shardset", t0, t1)
		b.tr.root("Delete", "shardset", t1, t2)
	}
	return nil
}

// runChurn runs mix-churn: set-up on the durable replicated write path,
// the churn pass(es), then abandonment without a final checkpoint and
// recovery with OpenShardSet, whose state must hold every acknowledged
// mutation.
func (b *bench) runChurn() error {
	if err := os.MkdirAll(b.cfg.scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.cfg.scratch, "churn-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cs := &churnState{dir: dir}
	b.churn = cs
	st, setupCatchup, err := b.churnSetup(cs)
	if err != nil {
		return err
	}
	heap := heapMB()
	var recs []opRec
	pass := func(traced bool) (passResult, error) {
		p, err := b.churnPassRun(cs, b.cfg.seconds, traced)
		recs = append(recs, p.recs...)
		return p, err
	}
	plain, traced, err := b.passes(pass)
	if err != nil {
		return err
	}
	walBytes, _ := dirBytes(dir, ".wal")
	snapBytes, _ := dirBytes(dir, ".snap")
	walMuts := 2 * ((cs.steps + b.cfg.scale.checkpoint/2) % b.cfg.scale.checkpoint) // mutations since the last checkpoint rotated the logs

	// Abandon the set — no final checkpoint — and recover from disk
	// while the abandoned set's logs are still open.
	abandoned := b.set
	b.set = nil
	abandoned.Close()
	rec, err := b.recover(cs)
	if cerr := abandoned.CloseWAL(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	b.rep.e2e = []metric{
		{name: "setup_s", value: st.total.Seconds(), unit: "s", note: "set-up, first checkpoint, WAL open and follower catch-up"},
	}
	gated, tail := closedMetrics(plain)
	gated[0].note = "exact reads per second, one reader beside the writer"
	b.rep.e2e = append(b.rep.e2e, gated...)
	b.rep.e2e = append(b.rep.e2e, metric{name: "heap_mb", value: heap, unit: "MB", note: "live heap after set-up"})
	b.rep.extra = append(b.rep.extra, tail)
	var mut dist
	for _, m := range plain.churn.mut {
		mut.add(m.done.Sub(m.due))
	}
	mutTail, mutPct := mut.tail()
	b.rep.extra = append(b.rep.extra,
		metric{name: "mut_p50_ms", value: mut.median(), unit: "ms", note: fmt.Sprintf("Add+Delete from due time, n=%d", len(mut))},
		metric{name: "mut_tail_ms", value: mutTail, unit: "ms", note: fmt.Sprintf("Add+Delete p%.1f from due time, n=%d", mutPct, len(mut))},
		metric{name: "recover_s", value: rec.elapsed.Seconds(), unit: "s", note: "OpenShardSet plus the first answered query"},
	)
	b.rep.extra = append(b.rep.extra, outcomeMetrics(plain.recs)...)
	if traced != nil {
		b.layerMetrics(*traced, plain, st)
		var add, del dist
		for _, m := range traced.churn.mut {
			add.add(m.add)
			del.add(m.del)
		}
		b.rep.layer = append(b.rep.layer,
			metric{name: "persist.add_ms", value: add.mean(), unit: "ms", note: "mean ShardSet.Add call (engine add, WAL append+fsync, ship)"},
			metric{name: "persist.delete_ms", value: del.mean(), unit: "ms", note: "mean ShardSet.Delete call"},
			metric{name: "persist.checkpoint_ms", value: traced.churn.ckpt.mean(), unit: "ms", note: fmt.Sprintf("mean ShardSet.Checkpoint, n=%d", len(traced.churn.ckpt))},
			metric{name: "persist.replayed", value: float64(rec.replayed), unit: "count", note: "WAL records replayed by OpenShardSet"},
			metric{name: "persist.wal_bytes_per_mut", value: ratio(float64(walBytes), float64(walMuts)), unit: "B", note: fmt.Sprintf("%d log bytes over %d mutations since the last checkpoint", walBytes, walMuts)},
			metric{name: "persist.snap_bytes_per_item", value: ratio(float64(snapBytes), float64(len(b.db)+cs.steps)), unit: "B", note: "last checkpoint's snapshot bytes per item"},
			metric{name: "replica.lag_max", value: float64(traced.churn.lagMax), unit: "count", note: "largest follower lag (LSNs) seen after a writer step"},
			metric{name: "replica.catchup_ms", value: ms(traced.churn.catchup), unit: "ms", note: fmt.Sprintf("WaitReplicasCaughtUp after the pass (%.1f ms at set-up)", ms(setupCatchup))},
			metric{name: "engine.snapshot_builds_per_mut", value: ratio(float64(traced.churn.snapBuilds), float64(traced.churn.mutations)), unit: "ratio", note: fmt.Sprintf("%d primary snapshot builds over %d mutations", traced.churn.snapBuilds, traced.churn.mutations)},
			metric{name: "loadgen.late_tail_ms", value: tailOf(traced.churn.late), unit: "ms", note: "writer lateness against its schedule"},
		)
	}
	b.checkReads(recs, false)
	return nil
}

func tailOf(d dist) float64 {
	v, _ := d.tail()
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// recovery is what reopening found.
type recovery struct {
	elapsed  time.Duration
	replayed int
}

// recover reopens the set from disk, answers a first query, and checks
// that every acknowledged mutation survived and sampled answers equal
// the ground truth over the expected database.
func (b *bench) recover(cs *churnState) (recovery, error) {
	var rec recovery
	t0 := time.Now()
	set, stats, err := emdsearch.OpenShardSet(cs.dir, b.cost, b.engOpts, emdsearch.ShardSetOptions{Shards: 2, Seed: b.cfg.seed})
	if err != nil {
		b.rep.violate("OpenShardSet after abandonment: %v", err)
		return rec, nil
	}
	defer set.Close()
	first, err := set.KNN(context.Background(), b.pool[0], k)
	rec.elapsed = time.Since(t0)
	b.tr.root("OpenShardSet", "persist", t0, time.Now())
	for _, st := range stats {
		rec.replayed += st.WALRecords
	}
	if err != nil {
		b.rep.violate("first query after recovery: %v", err)
		return rec, nil
	}
	b.checkDurable(set, cs)
	truth, err := groundTruth(b.cost, b.truthQueries(), b.liveItem(cs), len(b.db)+cs.steps)
	if err != nil {
		return rec, err
	}
	answers := []*emdsearch.ShardAnswer{first}
	for qi := 1; qi < len(truth); qi++ {
		a, err := set.KNN(context.Background(), b.pool[qi], k)
		if err != nil {
			b.rep.violate("query %d after recovery: %v", qi, err)
			return rec, nil
		}
		answers = append(answers, a)
	}
	for qi, a := range answers {
		b.rep.attempted++
		err := sameKNN(a.Results, truth[qi])
		if a.Degraded {
			err = fmt.Errorf("degraded with no fault or deadline")
		}
		if err != nil {
			b.rep.failed++
			b.rep.violate("after recovery, query %d: %v", qi, err)
		}
	}
	return rec, nil
}

// checkDurable verifies that the recovered set holds exactly the
// acknowledged mutations: every added item with its label and vector,
// every deleted item gone, nothing else.
func (b *bench) checkDurable(set *emdsearch.ShardSet, cs *churnState) {
	want := len(b.db) + cs.steps
	b.rep.attempted += 2 * cs.steps
	if got := set.Len(); got != want {
		b.rep.failed++
		b.rep.violate("recovered set holds %d items, want %d (acknowledged adds lost or invented)", got, want)
		return
	}
	shards := set.Shards()
	lost := 0
	for gid := 0; gid < want; gid++ {
		e := set.Engine(gid % shards)
		local := gid / shards
		if gone := e.Deleted(local); gone != (gid < cs.steps) {
			lost++
			if lost <= 3 {
				b.rep.violate("recovered item %d deleted=%v, want %v", gid, gone, gid < cs.steps)
			}
			continue
		}
		if gid < len(b.db) {
			continue
		}
		i := gid - len(b.db)
		if e.Label(local) != addedLabel(i) || !sameVector(e.Vector(local), b.addedItem(i)) {
			lost++
			if lost <= 3 {
				b.rep.violate("recovered item %d is not the acknowledged add %d", gid, i)
			}
		}
	}
	b.rep.failed += lost
}

func sameVector(a, b emdsearch.Histogram) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// dirBytes sums the sizes of dir's files with the given suffix.
func dirBytes(dir, suffix string) (int64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"+suffix))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
