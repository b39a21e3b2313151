package transport

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Solver is a reusable exact solver for transportation problems over
// one fixed cost matrix. It pools the simplex working state across
// calls, which removes essentially all allocation from the hot path of
// query processing (hundreds of small allocations per solve otherwise),
// and it sorts each row's and column's cost order once, so every
// solve's Vogel start walks presorted orders instead of rescanning the
// matrix. SolveValue and SolveValueBounded return only the optimal
// objective; SolveFlow also returns the flow matrix.
//
// The cost matrix is fixed at NewSolver and retained, not copied: the
// caller must not modify it afterwards.
//
// A Solver is safe for concurrent use; each goroutine draws its own
// state from the pool.
type Solver struct {
	m, n int
	cost [][]float64
	ord  *costOrder
	pool sync.Pool
}

// costOrder holds, for one cost matrix, every row's column indices and
// every column's row indices in ascending cost order. The sort is
// stable, so tied costs keep index order — exactly the order in which
// a left-to-right scan meets them, which is what makes the cursor
// Vogel of initVogel pick the same cells as the scan Vogel.
type costOrder struct {
	rows [][]int32 // rows[i]: columns j by ascending cost[i][j]
	cols [][]int32 // cols[j]: rows i by ascending cost[i][j]
}

func newCostOrder(cost [][]float64, m, n int) *costOrder {
	o := &costOrder{rows: make([][]int32, m), cols: make([][]int32, n)}
	backing := make([]int32, 2*m*n)
	for i := range o.rows {
		ord := backing[i*n : (i+1)*n : (i+1)*n]
		for j := range ord {
			ord[j] = int32(j)
		}
		row := cost[i]
		slices.SortStableFunc(ord, func(a, b int32) int { return cmp.Compare(row[a], row[b]) })
		o.rows[i] = ord
	}
	backing = backing[m*n:]
	for j := range o.cols {
		ord := backing[j*m : (j+1)*m : (j+1)*m]
		for i := range ord {
			ord[i] = int32(i)
		}
		slices.SortStableFunc(ord, func(a, b int32) int { return cmp.Compare(cost[a][j], cost[b][j]) })
		o.cols[j] = ord
	}
	return o
}

// NewSolver creates a pooled solver for problems over the given cost
// matrix, which must be non-empty and rectangular with non-negative
// finite entries.
func NewSolver(cost [][]float64) (*Solver, error) {
	m := len(cost)
	if m == 0 || len(cost[0]) == 0 {
		return nil, errors.New("transport: NewSolver: empty cost matrix")
	}
	n := len(cost[0])
	if err := validateCost(cost, n); err != nil {
		return nil, err
	}
	s := &Solver{m: m, n: n, cost: cost, ord: newCostOrder(cost, m, n)}
	s.pool.New = func() interface{} {
		st := newSimplexState(m, n)
		st.ord = s.ord
		return st
	}
	return s, nil
}

// Shape returns the problem shape this solver accepts.
func (s *Solver) Shape() (m, n int) { return s.m, s.n }

func (s *Solver) checkShape(supply, demand []float64) error {
	if len(supply) != s.m || len(demand) != s.n {
		return fmt.Errorf("transport: solver is %dx%d, problem is %dx%d",
			s.m, s.n, len(supply), len(demand))
	}
	return nil
}

// SolveValue solves the problem with the given marginals and returns
// the optimal objective. On the (rare) simplex iteration-limit failure
// it falls back to the allocating SSP solver so callers always get an
// exact value.
//
// SolveValue validates the problem and always runs the full dense
// shape from a cold (Vogel) start — the legacy kernel. The returned
// objective is the canonical double-double dual objective of the
// polished terminal basis, so it is bit-identical to what
// SolveValueBounded reports for the same problem when that solve runs
// to optimality, regardless of sparsity reduction.
func (s *Solver) SolveValue(supply, demand []float64) (float64, error) {
	if err := s.checkShape(supply, demand); err != nil {
		return 0, err
	}
	p := Problem{Supply: supply, Demand: demand, Cost: s.cost}
	if err := Validate(p); err != nil {
		return 0, err
	}
	st := s.pool.Get().(*simplexState)
	_, err := st.run(p)
	if err != nil {
		s.pool.Put(st)
		if errors.Is(err, ErrIterationLimit) {
			sol, sspErr := SolveSSP(p)
			if sspErr != nil {
				return 0, sspErr
			}
			return sol.Objective, nil
		}
		return 0, err
	}
	st.polish(supply, demand)
	obj := st.canonicalValue(supply, demand)
	s.pool.Put(st)
	return obj, nil
}

// SolveFlow solves the problem with the given marginals cold to
// optimality on the full dense shape and returns the solution with its
// flow matrix and duals, copied out of the pooled state. It runs the
// same pivots from the same Vogel basis as the package-level Solve, so
// flows, duals and objective are identical to Solve's; only the
// two-cheapest refresh of the Vogel start uses the solver's presorted
// orders. Inputs are validated.
func (s *Solver) SolveFlow(supply, demand []float64) (*Solution, error) {
	if err := s.checkShape(supply, demand); err != nil {
		return nil, err
	}
	p := Problem{Supply: supply, Demand: demand, Cost: s.cost}
	if err := Validate(p); err != nil {
		return nil, err
	}
	st := s.pool.Get().(*simplexState)
	defer s.pool.Put(st)
	iter, err := st.run(p)
	if err != nil {
		if errors.Is(err, ErrIterationLimit) {
			return SolveSSP(p)
		}
		return nil, err
	}
	sol := st.solution(s.cost, iter)
	flow := newMatrix(s.m, s.n)
	for i, row := range sol.Flow {
		copy(flow[i], row)
	}
	sol.Flow = flow
	sol.DualU = slices.Clone(sol.DualU)
	sol.DualV = slices.Clone(sol.DualV)
	return sol, nil
}

// SolveValueBounded is the threshold-aware form of SolveValue: it
// solves the problem but may return early — with Aborted=true and a
// certified lower bound as Value — as soon as a dual-feasible solution
// proves the optimum exceeds abortAbove. Pass abortAbove = +Inf to
// always run to optimality.
//
// Two optimizations distinguish it from SolveValue. (1) Zero-mass
// rows and columns are stripped before solving (Rows/Cols report the
// reduced shape), which changes nothing about the optimum. (2) Before
// any simplex work the problem is priced with the column duals of the
// pooled state's last optimal solve, and after each dual
// recomputation with the current ones; each feasibility-repaired dual
// objective is a certified lower bound (weak duality) checked against
// abortAbove. Every solve that gets past the first check starts cold
// from a Vogel basis.
//
// The inputs are trusted — no validation is performed; callers own the
// marginals (non-negative, balanced). When the solve completes, Value
// is bit-identical to SolveValue's for the same problem.
func (s *Solver) SolveValueBounded(supply, demand []float64, abortAbove float64) (BoundedResult, error) {
	return s.SolveValueBoundedIntr(supply, demand, abortAbove, nil)
}

// SolveValueBoundedIntr is SolveValueBounded with a cooperative
// interrupt: when intr is non-nil it is polled once per pivot
// iteration, and an observed interrupt stops the solve within one
// pivot's worth of work. The result then carries Interrupted=true and
// Value is a certified lower bound on the optimum by weak duality
// (possibly 0 when the interrupt was observed before any pivoting).
// Interrupted solves never update the pooled dual cache, so later
// solves are unaffected. A nil intr is byte-identical to
// SolveValueBounded.
func (s *Solver) SolveValueBoundedIntr(supply, demand []float64, abortAbove float64, intr *atomic.Bool) (BoundedResult, error) {
	if err := s.checkShape(supply, demand); err != nil {
		return BoundedResult{}, err
	}
	p := Problem{Supply: supply, Demand: demand, Cost: s.cost}
	st := s.pool.Get().(*simplexState)
	res, err := st.solveBounded(p, abortAbove, intr)
	s.pool.Put(st)
	if err != nil {
		if errors.Is(err, ErrIterationLimit) {
			sol, sspErr := SolveSSP(p)
			if sspErr != nil {
				return BoundedResult{}, sspErr
			}
			return BoundedResult{Value: sol.Objective, Rows: res.Rows, Cols: res.Cols}, nil
		}
		return BoundedResult{}, err
	}
	return res, nil
}
