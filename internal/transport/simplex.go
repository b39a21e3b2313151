package transport

import (
	"fmt"
	"math"
	"sync/atomic"
)

// simplexState holds the mutable state of one transportation simplex
// run. Rows are nodes 0..m-1 and columns are nodes m..m+n-1 of the
// basis spanning tree.
//
// Buffers are sized for a capacity shape capM x capN fixed at
// allocation; the logical shape m x n of the current solve may be
// smaller (sparsity-reduced solves strip zero-mass rows and columns).
type simplexState struct {
	capM, capN int
	m, n       int
	cost       [][]float64
	flow       [][]float64 // flowRows[:m], resliced over flowBacking by prepare
	basic      []bool      // m*n cell -> in basis
	adj        [][]int32
	u, v       []float64
	uSet       []bool
	vSet       []bool
	parent     []int32 // node -> parent node in BFS
	pCell      []int32 // node -> cell (i*n+j) connecting it to parent
	queue      []int32
	scale      float64 // magnitude of the largest cost, for tolerances

	flowBacking []float64
	flowRows    [][]float64
	// cand is the candidate list for partial pricing: cells that had a
	// negative reduced cost at the last full scan. Pivots price only
	// this list; a full O(m*n) scan happens only when the list runs
	// dry, which also certifies optimality.
	cand []int32
	// cycle is the reusable pivot-cycle buffer.
	cycle []cycleCell
	// Reusable Vogel initializer buffers.
	vs, vd               []float64
	rowActive, colActive []bool
	rowMin1, rowMin2     []int32
	colMin1, colMin2     []int32
	rowPen, colPen       []float64
	// ord is the presorted cost order of the owning Solver, nil for
	// one-shot states. When set, Vogel finds each row's and column's
	// two cheapest active entries with the cursors rowPos1/rowPos2 and
	// colPos1/colPos2 (positions in ord, indexed in reduced
	// coordinates) instead of rescanning the row or column.
	ord              *costOrder
	rowPos1, rowPos2 []int32
	colPos1, colPos2 []int32
	// uf is the reusable union-find buffer of patchBasis.
	uf []int32

	// Sparsity-reduction maps between original (capM x capN) and
	// reduced (m x n) coordinates, rebuilt per solve (identity on the
	// dense shape). rowInv and colInv hold -1 for stripped zero-mass
	// rows/columns.
	rowMap, colMap []int32
	rowInv, colInv []int32
	rsBuf, rdBuf   []float64
	costBacking    []float64 // lazily allocated reduced cost storage
	costRows       [][]float64
	// warmV holds the column dual potentials of the most recent optimal
	// solve in original coordinates. Any dual vector v yields a certified
	// lower bound on a later solve's optimum after the row repair
	// u_i = min_j (c_ij - v_j), so these cached potentials let a bounded
	// solve abort before any simplex work when the previous optimum's
	// geometry already prices the new candidate above the threshold.
	warmV []float64
	// Leaf-peeling and cut-marking scratch of the polish phase, with
	// the double-double residuals of its exact-feasibility peel.
	peelDeg              []int32
	peelDone             []bool
	peelResHi, peelResLo []float64
	// Double-double dual potentials for the canonical objective.
	duHi, duLo []float64
	dvHi, dvLo []float64
}

// cycleCell is one cell of a pivot cycle with its +/- role.
type cycleCell struct {
	i, j int32
	plus bool
}

// SolveSimplex solves p with the transportation simplex from a Vogel
// start. The returned solution carries optimal dual potentials;
// CheckOptimal can verify it independently. If the pivot count exceeds
// the iteration budget, an error wrapping ErrIterationLimit is
// returned.
//
// A one-shot solve sees its cost matrix once, so its Vogel start
// rescans rows and columns rather than sorting them first; a Solver
// amortizes the sort over all its solves.
func SolveSimplex(p Problem) (*Solution, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}
	st := newSimplexState(len(p.Supply), len(p.Demand))
	iter, err := st.run(p)
	if err != nil {
		return nil, err
	}
	return st.solution(p.Cost, iter), nil
}

// solution wraps the state's optimal flow and freshly computed duals
// (views into the state's buffers, not copies) as a Solution.
func (st *simplexState) solution(cost [][]float64, iter int) *Solution {
	st.computeDuals()
	return &Solution{
		Objective:  objective(cost, st.flow),
		Flow:       st.flow,
		DualU:      st.u,
		DualV:      st.v,
		Iterations: iter,
		Method:     "simplex",
	}
}

// newSimplexState allocates all buffers for solves of capacity shape
// m x n (the logical shape of later solves may be smaller).
func newSimplexState(m, n int) *simplexState {
	st := &simplexState{
		capM: m, capN: n,
		m: m, n: n,
		flowBacking: make([]float64, m*n),
		flowRows:    make([][]float64, m),
		basic:       make([]bool, m*n),
		adj:         make([][]int32, m+n),
		u:           make([]float64, m),
		v:           make([]float64, n),
		uSet:        make([]bool, m),
		vSet:        make([]bool, n),
		parent:      make([]int32, m+n),
		pCell:       make([]int32, m+n),
		queue:       make([]int32, 0, m+n),
		vs:          make([]float64, m),
		vd:          make([]float64, n),
		rowActive:   make([]bool, m),
		colActive:   make([]bool, n),
		rowMin1:     make([]int32, m),
		rowMin2:     make([]int32, m),
		colMin1:     make([]int32, n),
		colMin2:     make([]int32, n),
		rowPen:      make([]float64, m),
		colPen:      make([]float64, n),
		rowPos1:     make([]int32, m),
		rowPos2:     make([]int32, m),
		colPos1:     make([]int32, n),
		colPos2:     make([]int32, n),
		uf:          make([]int32, m+n),
		rowMap:      make([]int32, m),
		colMap:      make([]int32, n),
		rowInv:      make([]int32, m),
		colInv:      make([]int32, n),
		rsBuf:       make([]float64, m),
		rdBuf:       make([]float64, n),
		peelDeg:     make([]int32, m+n),
		peelDone:    make([]bool, m+n),
		peelResHi:   make([]float64, m+n),
		peelResLo:   make([]float64, m+n),
		duHi:        make([]float64, m),
		duLo:        make([]float64, m),
		dvHi:        make([]float64, n),
		dvLo:        make([]float64, n),
	}
	st.flow = st.flowRows[:m]
	for i := 0; i < m; i++ {
		st.flow[i] = st.flowBacking[i*n : (i+1)*n : (i+1)*n]
	}
	return st
}

// prepare clears the previous solve's state (at its own, possibly
// different, logical shape) and adopts the new logical shape m x n,
// reslicing the flow matrix over the shared backing array.
func (st *simplexState) prepare(m, n int) {
	old := st.m * st.n
	for i := 0; i < old; i++ {
		st.basic[i] = false
		st.flowBacking[i] = 0
	}
	for x := 0; x < st.m+st.n; x++ {
		st.adj[x] = st.adj[x][:0]
	}
	st.cand = st.cand[:0]
	st.scale = 0
	st.m, st.n = m, n
	st.flow = st.flowRows[:m]
	for i := 0; i < m; i++ {
		st.flow[i] = st.flowBacking[i*n : (i+1)*n : (i+1)*n]
	}
}

// computeScale records the magnitude of the largest cost entry, the
// reference for all pivoting tolerances.
func (st *simplexState) computeScale() {
	st.scale = 0
	for i := 0; i < st.m; i++ {
		for _, c := range st.cost[i][:st.n] {
			if c > st.scale {
				st.scale = c
			}
		}
	}
	if st.scale == 0 {
		st.scale = 1
	}
}

// loadDense adopts the full m x n shape of cost with identity
// coordinate maps and records the cost scale.
func (st *simplexState) loadDense(cost [][]float64, m, n int) {
	st.prepare(m, n)
	st.cost = cost
	for i := 0; i < m; i++ {
		st.rowMap[i] = int32(i)
		st.rowInv[i] = int32(i)
	}
	for j := 0; j < n; j++ {
		st.colMap[j] = int32(j)
		st.colInv[j] = int32(j)
	}
	st.computeScale()
}

// run executes one cold solve of p on the full dense shape of the
// (possibly reused) state — Vogel start, pivots to optimality — and
// returns the pivot count. On return st.flow holds the optimal flow.
func (st *simplexState) run(p Problem) (int, error) {
	st.loadDense(p.Cost, len(p.Supply), len(p.Demand))
	st.initVogel(p.Supply, p.Demand)
	st.patchBasis()
	iter, _, _, err := st.pivotLoop(p.Supply, p.Demand, math.Inf(1), nil)
	return iter, err
}

// stopCause says why pivotLoop returned before the iteration budget.
type stopCause int

const (
	stopOptimal stopCause = iota
	stopAborted
	stopInterrupted
)

// pivotLoop pivots until optimality, the iteration budget, or — when
// abortAbove is finite — until a certified dual lower bound on the
// optimum exceeds abortAbove. After every dual recomputation the loop
// evaluates the dual objective of a feasibility-repaired copy of the
// current potentials (feasibleDualBound); by weak duality that value
// never exceeds the true optimum, so once it clears abortAbove the
// caller may discard the candidate without finishing the solve. The
// bound is reported minus a small guard so that float error in the
// repair can never certify past a true optimum that ties abortAbove.
//
// intr, when non-nil, is polled once per iteration: an observed
// interrupt stops the loop within one pivot's worth of work (O(m·n))
// and returns stopInterrupted with the same feasibility-repaired dual
// bound as a certified lower bound on the optimum — this is what makes
// a query deadline take effect inside a single large solve instead of
// only between solves.
func (st *simplexState) pivotLoop(supply, demand []float64, abortAbove float64, intr *atomic.Bool) (iter int, stop stopCause, bound float64, err error) {
	// The budget is generous: well-behaved instances pivot O(m+n) times.
	maxIter := 200 * (st.m + st.n + 10)
	tol := 1e-10 * st.scale
	guard := boundGuard * st.scale
	bounded := !math.IsInf(abortAbove, 1)
	for iter = 0; iter < maxIter; iter++ {
		st.computeDuals()
		if intr != nil && intr.Load() {
			b := st.feasibleDualBound(supply, demand) - guard
			if b < 0 {
				b = 0
			}
			return iter, stopInterrupted, b, nil
		}
		if bounded {
			if b := st.feasibleDualBound(supply, demand) - guard; b > abortAbove {
				return iter, stopAborted, b, nil
			}
		}
		ei, ej, ok := st.entering(tol)
		if !ok {
			return iter, stopOptimal, 0, nil
		}
		st.pivot(ei, ej)
	}
	return maxIter, stopOptimal, 0, fmt.Errorf("transport: simplex on %dx%d problem: %w", st.m, st.n, ErrIterationLimit)
}

func newMatrix(rows, cols int) [][]float64 {
	backing := make([]float64, rows*cols)
	out := make([][]float64, rows)
	for i := range out {
		out[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

// addBasic inserts cell (i,j) into the basis and adjacency lists.
func (st *simplexState) addBasic(i, j int) {
	cell := i*st.n + j
	if st.basic[cell] {
		return
	}
	st.basic[cell] = true
	st.adj[i] = append(st.adj[i], int32(st.m+j))
	st.adj[st.m+j] = append(st.adj[st.m+j], int32(i))
}

// removeBasic removes cell (i,j) from the basis and adjacency lists.
func (st *simplexState) removeBasic(i, j int) {
	cell := i*st.n + j
	st.basic[cell] = false
	st.adj[i] = removeNode(st.adj[i], int32(st.m+j))
	st.adj[st.m+j] = removeNode(st.adj[st.m+j], int32(i))
}

func removeNode(list []int32, node int32) []int32 {
	for k, x := range list {
		if x == node {
			list[k] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

// initVogel builds the initial solution with Vogel's approximation
// method. Each allocation deactivates exactly one row or column, which
// keeps the allocated cells acyclic; patchBasis completes the spanning
// tree afterwards if fewer than m+n-1 cells were created.
//
// The two cheapest active entries of a row or column are its first two
// active entries in (cost, index) order. Without presorted orders they
// are found by a scan (O(n) per refresh). With st.ord they are found by
// two cursors per row and column that walk the presorted order past
// stripped and deactivated entries; rows and columns only ever
// deactivate during one run, so the cursors only move forward and all
// refreshes together cost O(m·n) per solve. Both refreshes break ties
// by index, so they pick the same cells and yield identical bases.
func (st *simplexState) initVogel(supply, demand []float64) {
	m, n := st.m, st.n
	s := st.vs[:m]
	d := st.vd[:n]
	copy(s, supply)
	copy(d, demand)
	rowActive := st.rowActive[:m]
	colActive := st.colActive[:n]
	for i := range rowActive {
		rowActive[i] = true
	}
	for j := range colActive {
		colActive[j] = true
	}
	activeRows, activeCols := m, n

	// rowMin1/rowMin2 cache the indices of the two cheapest active
	// columns per row (and vice versa), and rowPen/colPen the regret
	// they imply: -Inf without an active entry (never chosen), +Inf
	// with only one. All are recomputed lazily when one of the cached
	// entries deactivates.
	rowMin1, rowMin2 := st.rowMin1, st.rowMin2
	colMin1, colMin2 := st.colMin1, st.colMin2
	rowPen, colPen := st.rowPen, st.colPen
	if st.ord != nil {
		clear(st.rowPos1[:m])
		clear(st.rowPos2[:m])
		clear(st.colPos1[:n])
		clear(st.colPos2[:n])
	}
	refreshRow := func(i int) {
		m1, m2 := int32(-1), int32(-1)
		row := st.cost[i]
		if st.ord != nil {
			m1, m2 = cursorMins(st.ord.rows[st.rowMap[i]], &st.rowPos1[i], &st.rowPos2[i], st.colInv, colActive)
		} else {
			for j := 0; j < n; j++ {
				if !colActive[j] {
					continue
				}
				if m1 < 0 || row[j] < row[m1] {
					m2 = m1
					m1 = int32(j)
				} else if m2 < 0 || row[j] < row[m2] {
					m2 = int32(j)
				}
			}
		}
		rowMin1[i], rowMin2[i] = m1, m2
		rowPen[i] = math.Inf(-1)
		if m1 >= 0 {
			rowPen[i] = math.Inf(1)
			if m2 >= 0 {
				rowPen[i] = row[m2] - row[m1]
			}
		}
	}
	refreshCol := func(j int) {
		m1, m2 := int32(-1), int32(-1)
		if st.ord != nil {
			m1, m2 = cursorMins(st.ord.cols[st.colMap[j]], &st.colPos1[j], &st.colPos2[j], st.rowInv, rowActive)
		} else {
			for i := 0; i < m; i++ {
				if !rowActive[i] {
					continue
				}
				if m1 < 0 || st.cost[i][j] < st.cost[m1][j] {
					m2 = m1
					m1 = int32(i)
				} else if m2 < 0 || st.cost[i][j] < st.cost[m2][j] {
					m2 = int32(i)
				}
			}
		}
		colMin1[j], colMin2[j] = m1, m2
		colPen[j] = math.Inf(-1)
		if m1 >= 0 {
			colPen[j] = math.Inf(1)
			if m2 >= 0 {
				colPen[j] = st.cost[m2][j] - st.cost[m1][j]
			}
		}
	}
	for i := 0; i < m; i++ {
		refreshRow(i)
	}
	for j := 0; j < n; j++ {
		refreshCol(j)
	}

	for activeRows > 0 && activeCols > 0 {
		// Pick the row or column with the largest regret.
		bestPenalty := -1.0
		bestIsRow := true
		bestIdx := -1
		for i := 0; i < m; i++ {
			if !rowActive[i] {
				continue
			}
			if rowMin1[i] >= 0 && !colActive[rowMin1[i]] ||
				rowMin2[i] >= 0 && !colActive[rowMin2[i]] {
				refreshRow(i)
			}
			if p := rowPen[i]; p > bestPenalty {
				bestPenalty, bestIsRow, bestIdx = p, true, i
			}
		}
		for j := 0; j < n; j++ {
			if !colActive[j] {
				continue
			}
			if colMin1[j] >= 0 && !rowActive[colMin1[j]] ||
				colMin2[j] >= 0 && !rowActive[colMin2[j]] {
				refreshCol(j)
			}
			if p := colPen[j]; p > bestPenalty {
				bestPenalty, bestIsRow, bestIdx = p, false, j
			}
		}
		if bestIdx < 0 {
			break
		}

		var i, j int
		if bestIsRow {
			i = bestIdx
			j = int(rowMin1[i])
		} else {
			j = bestIdx
			i = int(colMin1[j])
		}
		q := math.Min(s[i], d[j])
		st.flow[i][j] += q
		st.addBasic(i, j)
		s[i] -= q
		d[j] -= q
		// Deactivate exactly one side so the allocation graph stays
		// acyclic; the surviving zero-mass side absorbs a degenerate
		// allocation later.
		if s[i] <= d[j] && activeRows > 1 || activeCols == 1 {
			rowActive[i] = false
			activeRows--
		} else {
			colActive[j] = false
			activeCols--
		}
	}
}

// cursorMins advances the cursors pos1 < pos2 along order (original
// indices in ascending cost) to its first and second live entries and
// returns their reduced indices, -1 where there is none. An entry is
// live when inv maps it to a kept index that is still active. Entries
// never come back to life within one Vogel run, so skipped positions
// need no revisit.
func cursorMins(order []int32, pos1, pos2 *int32, inv []int32, active []bool) (m1, m2 int32) {
	m1 = nextLive(order, pos1, inv, active)
	if *pos2 <= *pos1 {
		*pos2 = *pos1 + 1
	}
	return m1, nextLive(order, pos2, inv, active)
}

// nextLive moves *pos forward to the first live entry of order at or
// after it and returns that entry's reduced index, or -1 (with *pos at
// or past the end) when none is left.
func nextLive(order []int32, pos *int32, inv []int32, active []bool) int32 {
	p := int(*pos)
	for ; p < len(order); p++ {
		if k := inv[order[p]]; k >= 0 && active[k] {
			*pos = int32(p)
			return k
		}
	}
	*pos = int32(p)
	return -1
}

// patchBasis extends the current basic cells to a spanning tree of the
// m+n nodes by adding zero-flow cells that connect distinct components,
// preferring cheap cells so the first dual solution is informative.
func (st *simplexState) patchBasis() {
	total := st.m + st.n
	parent := st.uf
	for i := 0; i < total; i++ {
		parent[i] = int32(i)
	}
	find := func(x int) int {
		for parent[x] != int32(x) {
			parent[x] = parent[parent[x]]
			x = int(parent[x])
		}
		return x
	}
	count := 0
	for i := 0; i < st.m; i++ {
		for j := 0; j < st.n; j++ {
			if st.basic[i*st.n+j] {
				count++
				ri, rj := find(i), find(st.m+j)
				if ri != rj {
					parent[ri] = int32(rj)
				}
			}
		}
	}
	for count < total-1 {
		// Find the cheapest non-basic cell joining two components.
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 0; i < st.m; i++ {
			for j := 0; j < st.n; j++ {
				if st.basic[i*st.n+j] {
					continue
				}
				if find(i) != find(st.m+j) && st.cost[i][j] < best {
					best = st.cost[i][j]
					bi, bj = i, j
				}
			}
		}
		if bi < 0 {
			// Should be impossible: a bipartite graph with all cells
			// available is connected.
			panic("transport: patchBasis found no connecting cell")
		}
		st.addBasic(bi, bj)
		parent[find(bi)] = int32(find(st.m + bj))
		count++
	}
}

// computeDuals solves u_i + v_j = c_ij over the basis tree with
// u_0 = 0, via BFS from node 0.
func (st *simplexState) computeDuals() {
	for i := 0; i < st.m; i++ {
		st.uSet[i] = false
	}
	for j := 0; j < st.n; j++ {
		st.vSet[j] = false
	}
	st.queue = st.queue[:0]
	st.u[0] = 0
	st.uSet[0] = true
	st.queue = append(st.queue, 0)
	for head := 0; head < len(st.queue); head++ {
		node := st.queue[head]
		if int(node) < st.m {
			i := int(node)
			for _, nb := range st.adj[node] {
				j := int(nb) - st.m
				if !st.vSet[j] {
					st.v[j] = st.cost[i][j] - st.u[i]
					st.vSet[j] = true
					st.queue = append(st.queue, nb)
				}
			}
		} else {
			j := int(node) - st.m
			for _, nb := range st.adj[node] {
				i := int(nb)
				if !st.uSet[i] {
					st.u[i] = st.cost[i][j] - st.v[j]
					st.uSet[i] = true
					st.queue = append(st.queue, nb)
				}
			}
		}
	}
}

// entering returns a non-basic cell with negative reduced cost, or
// ok=false when the current basis is optimal. It first prices the
// candidate list (cells negative at the last full scan) and picks the
// most negative still-valid entry; only when the list is exhausted
// does it rescan the whole matrix, refilling the list. Optimality is
// still certified by a clean full scan, so the result is exact.
func (st *simplexState) entering(tol float64) (int, int, bool) {
	// Price the surviving candidates.
	if len(st.cand) > 0 {
		bi, bj := -1, -1
		best := -tol
		kept := st.cand[:0]
		for _, cell := range st.cand {
			if st.basic[cell] {
				continue
			}
			i := int(cell) / st.n
			j := int(cell) % st.n
			rc := st.cost[i][j] - st.u[i] - st.v[j]
			if rc < -tol {
				kept = append(kept, cell)
				if rc < best {
					best = rc
					bi, bj = i, j
				}
			}
		}
		st.cand = kept
		if bi >= 0 {
			return bi, bj, true
		}
	}

	// Full scan: find the most negative cell and refill the list.
	maxCand := 4 * (st.m + st.n)
	st.cand = st.cand[:0]
	bi, bj := -1, -1
	best := -tol
	for i := 0; i < st.m; i++ {
		ui := st.u[i]
		row := st.cost[i]
		base := i * st.n
		for j := 0; j < st.n; j++ {
			if st.basic[base+j] {
				continue
			}
			rc := row[j] - ui - st.v[j]
			if rc < -tol {
				if len(st.cand) < maxCand {
					st.cand = append(st.cand, int32(base+j))
				}
				if rc < best {
					best = rc
					bi, bj = i, j
				}
			}
		}
	}
	return bi, bj, bi >= 0
}

// pivot brings cell (ei,ej) into the basis: it finds the unique cycle
// the cell closes in the basis tree, shifts the maximal flow theta
// around it and removes the blocking cell.
func (st *simplexState) pivot(ei, ej int) {
	// BFS in the basis tree from row node ei to column node m+ej.
	start := int32(ei)
	target := int32(st.m + ej)
	for i := 0; i < st.m+st.n; i++ {
		st.parent[i] = -1
	}
	st.parent[start] = start
	st.queue = st.queue[:0]
	st.queue = append(st.queue, start)
	found := false
	for head := 0; head < len(st.queue) && !found; head++ {
		node := st.queue[head]
		for _, nb := range st.adj[node] {
			if st.parent[nb] != -1 {
				continue
			}
			st.parent[nb] = node
			if int(node) < st.m {
				st.pCell[nb] = int32(int(node)*st.n + (int(nb) - st.m))
			} else {
				st.pCell[nb] = int32(int(nb)*st.n + (int(node) - st.m))
			}
			if nb == target {
				found = true
				break
			}
			st.queue = append(st.queue, nb)
		}
	}
	if !found {
		panic("transport: basis is not a spanning tree")
	}

	// Walk the tree path target -> start. The entering cell has sign +;
	// path cells alternate starting with - at the target end.
	st.cycle = st.cycle[:0]
	st.cycle = append(st.cycle, cycleCell{int32(ei), int32(ej), true})
	node := target
	plus := false
	for node != start {
		cell := int(st.pCell[node])
		st.cycle = append(st.cycle, cycleCell{int32(cell / st.n), int32(cell % st.n), plus})
		plus = !plus
		node = st.parent[node]
	}

	// theta is the minimal flow on a minus cell; ties break toward the
	// lexicographically smallest cell for deterministic pivoting.
	theta := math.Inf(1)
	li, lj := -1, -1
	for _, c := range st.cycle {
		if c.plus {
			continue
		}
		f := st.flow[c.i][c.j]
		if f < theta || (f == theta && (int(c.i) < li || int(c.i) == li && int(c.j) < lj)) {
			theta = f
			li, lj = int(c.i), int(c.j)
		}
	}
	for _, c := range st.cycle {
		if c.plus {
			st.flow[c.i][c.j] += theta
		} else {
			st.flow[c.i][c.j] -= theta
		}
	}
	// Clamp tiny negatives introduced by floating-point cancellation.
	st.flow[li][lj] = 0
	st.removeBasic(li, lj)
	st.addBasic(ei, ej)
}
