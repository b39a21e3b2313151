package main

import (
	"fmt"
	"math"
	"sort"

	"emdsearch"
)

// distTol is the relative tolerance between a distance the engine
// reports and the one emdsearch.EMD recomputes. The two solve the same
// transportation problem along different pivot paths, so they agree to
// the last few bits, not bit for bit. Item identities and ranks must
// match exactly.
const distTol = 1e-9

func closeDist(a, b float64) bool {
	return math.Abs(a-b) <= distTol*math.Max(math.Abs(a), math.Abs(b))+1e-15
}

// sameKNN checks a k-NN answer against the ground truth. Exact ties
// make more than one answer correct, so it checks what every correct
// answer shares: the true k-NN distance profile position by position,
// each returned item's true distance, and no item twice. Distances are
// compared up to distTol.
func sameKNN(got []emdsearch.Result, t truthSet) error {
	if len(got) != len(t.knn) {
		return fmt.Errorf("%d results, want %d", len(got), len(t.knn))
	}
	seen := map[int]bool{}
	for i, r := range got {
		if !closeDist(r.Dist, t.knn[i].Dist) {
			return fmt.Errorf("rank %d at distance %v, true k-NN distance %v (answer %v, truth %v)", i, r.Dist, t.knn[i].Dist, got, t.knn)
		}
		exact, ok := t.dist[r.Index]
		if !ok || seen[r.Index] {
			return fmt.Errorf("item %d is not live or returned twice", r.Index)
		}
		if !closeDist(r.Dist, exact) {
			return fmt.Errorf("item %d reported at %v, exact %v", r.Index, r.Dist, exact)
		}
		seen[r.Index] = true
	}
	return nil
}

// equivalent reports two answers to one query that agree up to distTol:
// the same distance at every rank, the same items except where exact
// ties at the last rank admit either, and the same distance for every
// shared item.
func equivalent(a, b []emdsearch.Result) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	ma, mb := map[int]float64{}, map[int]float64{}
	for i := range a {
		if !closeDist(a[i].Dist, b[i].Dist) {
			return false
		}
		ma[a[i].Index], mb[b[i].Index] = a[i].Dist, b[i].Dist
	}
	last := a[len(a)-1].Dist
	for idx, d := range ma {
		if db, ok := mb[idx]; ok && !closeDist(d, db) || !ok && !closeDist(d, last) {
			return false
		}
	}
	for idx, d := range mb {
		if _, ok := ma[idx]; !ok && !closeDist(d, last) {
			return false
		}
	}
	return true
}

// identical reports byte-identical result lists.
func identical(a, b []emdsearch.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// sameRange checks a range answer against the ground truth. Items whose
// true distance lies within distTol of eps are on the boundary and may
// be in or out; every other item must be in exactly when its distance
// is at most eps.
func sameRange(got []emdsearch.Result, t truthSet, eps float64) error {
	in := map[int]float64{}
	for i, r := range got {
		if i > 0 && (got[i-1].Dist > r.Dist || got[i-1].Dist == r.Dist && got[i-1].Index > r.Index) {
			return fmt.Errorf("range answer not in (distance, id) order at %d", i)
		}
		in[r.Index] = r.Dist
	}
	for _, r := range t.all {
		d, ok := in[r.Index]
		boundary := closeDist(r.Dist, eps)
		switch {
		case ok && !closeDist(d, r.Dist):
			return fmt.Errorf("item %d distance %v, exact %v", r.Index, d, r.Dist)
		case boundary:
		case ok && r.Dist > eps:
			return fmt.Errorf("item %d at %v returned beyond eps %v", r.Index, r.Dist, eps)
		case !ok && r.Dist <= eps:
			return fmt.Errorf("item %d at %v missing within eps %v", r.Index, r.Dist, eps)
		}
		delete(in, r.Index)
	}
	if len(in) > 0 {
		return fmt.Errorf("%d returned items are not live", len(in))
	}
	return nil
}

// checkReads is the oracle over a run's query records, applied after
// the timed window:
//   - an unexpected error (anything but the typed overload rejection or
//     an expired deadline) fails the operation;
//   - with repeatable set (a static corpus), every exact answer to the
//     same query must equal the first one up to distTol, and answers to
//     ground-truth queries must equal the ground truth up to exact ties;
//     a repeat that is equal but not byte-identical is counted in
//     report.bitDiffs and printed, not failed (see README.md);
//   - without it (churn), an exact answer must be in order and must not
//     contain an item whose deletion was acknowledged before the call;
//   - a sample of answers has every distance re-derived with
//     emdsearch.EMD, and every Anytime interval of a sampled Degraded
//     answer must contain the exact distance.
func (b *bench) checkReads(recs []opRec, repeatable bool) {
	first := map[[2]int][]emdsearch.Result{}
	sampledExact, sampledDegraded := 0, 0
	budget := b.cfg.scale.sampled
	for i := range recs {
		r := &recs[i]
		b.rep.attempted++
		if r.err != nil {
			if r.shed() || r.timedOut() {
				continue
			}
			b.rep.failed++
			b.rep.violate("%s query %d: unexpected error: %v", r.kind, r.q, r.err)
			continue
		}
		results := r.results()
		if r.degraded() {
			if sampledDegraded < budget {
				sampledDegraded++
				if err := b.checkCertificate(r); err != nil {
					b.rep.failed++
					b.rep.violate("degraded %s query %d: %v", r.kind, r.q, err)
				}
			}
			continue
		}
		var err error
		switch {
		case repeatable:
			key := [2]int{int(r.kind), r.q}
			if prev, ok := first[key]; !ok {
				first[key] = results
			} else if !identical(prev, results) {
				if equivalent(prev, results) {
					b.rep.bitDiffs++
				} else {
					err = fmt.Errorf("repeat of the query returned %v, first answer was %v", results, prev)
				}
			}
			if err == nil && r.q < len(b.truth) {
				if r.kind == opKNN {
					err = sameKNN(results, b.truth[r.q])
				}
				if r.kind == opRange {
					err = sameRange(results, b.truth[r.q], r.eps)
				}
			}
		default:
			err = checkChurnAnswer(results, r.floor)
		}
		if err == nil && sampledExact < budget && (i%4 == 0 || !repeatable) {
			sampledExact++
			err = b.checkDistances(r.q, results)
		}
		if err != nil {
			b.rep.failed++
			b.rep.violate("%s query %d: %v", r.kind, r.q, err)
		}
	}
}

func (k opKind) String() string {
	if k == opRange {
		return "range"
	}
	return "k-NN"
}

func (r *opRec) results() []emdsearch.Result {
	if r.ans != nil {
		return r.ans.Results
	}
	if r.rans != nil {
		return r.rans.Results
	}
	return nil
}

// checkChurnAnswer checks an exact k-NN answer served while the corpus
// changed: k items in (distance, id) order, none of them deleted
// before the query was issued.
func checkChurnAnswer(res []emdsearch.Result, floor int) error {
	if len(res) != k {
		return fmt.Errorf("%d results, want %d", len(res), k)
	}
	for i, r := range res {
		if r.Index < floor {
			return fmt.Errorf("result %d was deleted (acknowledged) before the query", r.Index)
		}
		if i > 0 && (res[i-1].Dist > r.Dist || res[i-1].Dist == r.Dist && res[i-1].Index > r.Index) {
			return fmt.Errorf("results not in (distance, id) order at %d", i)
		}
	}
	return nil
}

// gids is the number of global ids the set has handed out.
func (b *bench) gids() int {
	if b.churn != nil {
		return len(b.db) + b.churn.steps
	}
	return len(b.db)
}

// vectorOf returns the histogram of global id gid: an initial item or a
// churn insert.
func (b *bench) vectorOf(gid int) emdsearch.Histogram {
	if gid < len(b.db) {
		return b.db[gid]
	}
	return b.addedItem(gid - len(b.db))
}

// checkDistances recomputes every returned distance exhaustively.
func (b *bench) checkDistances(q int, res []emdsearch.Result) error {
	for _, r := range res {
		if r.Index < 0 || r.Index >= b.gids() {
			return fmt.Errorf("result id %d out of range", r.Index)
		}
		d, err := emdsearch.EMD(b.pool[q], b.vectorOf(r.Index), b.cost)
		if err != nil {
			return err
		}
		if !closeDist(d, r.Dist) {
			return fmt.Errorf("item %d reported at %v, exact %v", r.Index, r.Dist, d)
		}
	}
	return nil
}

// checkCertificate checks a Degraded answer: its confirmed results
// carry exact distances, and every Anytime interval contains the exact
// distance of its item.
func (b *bench) checkCertificate(r *opRec) error {
	if err := b.checkDistances(r.q, r.results()); err != nil {
		return err
	}
	if r.ans == nil {
		return nil
	}
	items := append([]emdsearch.AnytimeItem(nil), r.ans.Anytime...)
	sort.Slice(items, func(i, j int) bool { return items[i].Index < items[j].Index })
	for _, it := range items {
		d, err := emdsearch.EMD(b.pool[r.q], b.vectorOf(it.Index), b.cost)
		if err != nil {
			return err
		}
		lo := it.Lower - distTol*math.Abs(it.Lower) - 1e-15
		hi := it.Upper + distTol*math.Abs(it.Upper) + 1e-15
		if d < lo || d > hi {
			return fmt.Errorf("anytime item %d: exact %v outside [%v, %v]", it.Index, d, it.Lower, it.Upper)
		}
	}
	return nil
}
