// Package transport provides exact solvers for the balanced
// transportation problem, the linear program underlying the Earth
// Mover's Distance (Definition 1 of Wichterich et al., SIGMOD 2008):
//
//	minimize   sum_ij c_ij f_ij
//	subject to f_ij >= 0, sum_j f_ij = supply_i, sum_i f_ij = demand_j
//
// Two independent solvers are provided. SolveSimplex implements the
// transportation simplex (Vogel initialization, MODI/u-v dual updates,
// spanning-tree basis, deterministic pivoting) and is the default.
// SolveSSP implements a successive-shortest-path min-cost-flow solver
// with Johnson potentials; it is used as a cross-check in tests and as
// an automatic fallback should the simplex hit its iteration cap on a
// degenerate instance. Both return the optimal flow matrix, which the
// flow-based reduction heuristics of the paper consume.
package transport

import (
	"errors"
	"fmt"
	"math"
)

// MassTolerance is the maximum allowed relative imbalance between total
// supply and total demand. Histograms in this code base are normalized
// to total mass one, so any real imbalance indicates a caller bug.
const MassTolerance = 1e-6

// Problem is a balanced transportation problem instance. Cost must have
// len(Supply) rows and len(Demand) columns. Supplies and demands must
// be non-negative and (up to MassTolerance) of equal total mass.
type Problem struct {
	Supply []float64
	Demand []float64
	Cost   [][]float64
}

// Solution holds the result of solving a Problem.
type Solution struct {
	// Objective is the minimal total transportation cost.
	Objective float64
	// Flow is the optimal flow matrix (len(Supply) x len(Demand)).
	Flow [][]float64
	// DualU and DualV are optimal dual potentials satisfying
	// DualU[i]+DualV[j] <= Cost[i][j] for all cells. They are filled
	// by the simplex solver and serve as an optimality certificate via
	// strong duality; the SSP solver leaves them nil.
	DualU, DualV []float64
	// Iterations counts simplex pivots or SSP augmentations.
	Iterations int
	// Method names the solver that produced the solution
	// ("simplex" or "ssp").
	Method string
}

// ErrIterationLimit is returned (wrapped) when a solver exceeds its
// iteration budget, which on non-adversarial inputs indicates a bug or
// severe degeneracy.
var ErrIterationLimit = errors.New("transport: iteration limit exceeded")

// Validate checks that p is a well-formed balanced transportation
// problem and returns a descriptive error otherwise.
func Validate(p Problem) error {
	m, n := len(p.Supply), len(p.Demand)
	if m == 0 || n == 0 {
		return fmt.Errorf("transport: empty problem (%d supplies, %d demands)", m, n)
	}
	if len(p.Cost) != m {
		return fmt.Errorf("transport: cost matrix has %d rows, want %d", len(p.Cost), m)
	}
	var sumS, sumD float64
	for i, s := range p.Supply {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("transport: invalid supply[%d] = %g", i, s)
		}
		sumS += s
	}
	for j, d := range p.Demand {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("transport: invalid demand[%d] = %g", j, d)
		}
		sumD += d
	}
	if err := validateCost(p.Cost, n); err != nil {
		return err
	}
	scale := math.Max(sumS, sumD)
	if scale == 0 {
		// Zero total mass: the trivial all-zero flow is optimal, let
		// the solvers handle it.
		return nil
	}
	if math.Abs(sumS-sumD)/scale > MassTolerance {
		return fmt.Errorf("transport: unbalanced problem: total supply %g, total demand %g", sumS, sumD)
	}
	return nil
}

// validateCost checks that every row of cost has n columns and that
// all entries are non-negative and finite.
func validateCost(cost [][]float64, n int) error {
	for i, row := range cost {
		if len(row) != n {
			return fmt.Errorf("transport: cost row %d has %d columns, want %d", i, len(row), n)
		}
		for j, c := range row {
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("transport: invalid cost[%d][%d] = %g", i, j, c)
			}
		}
	}
	return nil
}

// Solve solves p with the transportation simplex and falls back to the
// successive-shortest-path solver if the simplex exceeds its iteration
// budget. This is the entry point the rest of the library uses.
func Solve(p Problem) (*Solution, error) {
	sol, err := SolveSimplex(p)
	if err != nil {
		if errors.Is(err, ErrIterationLimit) {
			return SolveSSP(p)
		}
		return nil, err
	}
	return sol, nil
}

// objective computes sum_ij cost_ij * flow_ij.
func objective(cost, flow [][]float64) float64 {
	var total float64
	for i, row := range flow {
		crow := cost[i]
		for j, f := range row {
			if f != 0 {
				total += crow[j] * f
			}
		}
	}
	return total
}

// CheckFeasible verifies that flow satisfies the constraints of p up to
// tol (absolute per row/column). It is exported for use in tests and in
// the library's paranoid verification mode.
func CheckFeasible(p Problem, flow [][]float64, tol float64) error {
	m, n := len(p.Supply), len(p.Demand)
	if len(flow) != m {
		return fmt.Errorf("transport: flow has %d rows, want %d", len(flow), m)
	}
	colSum := make([]float64, n)
	for i, row := range flow {
		if len(row) != n {
			return fmt.Errorf("transport: flow row %d has %d columns, want %d", i, len(row), n)
		}
		var rowSum float64
		for j, f := range row {
			if f < -tol {
				return fmt.Errorf("transport: negative flow[%d][%d] = %g", i, j, f)
			}
			rowSum += f
			colSum[j] += f
		}
		if math.Abs(rowSum-p.Supply[i]) > tol {
			return fmt.Errorf("transport: row %d ships %g, supply is %g", i, rowSum, p.Supply[i])
		}
	}
	for j, cs := range colSum {
		if math.Abs(cs-p.Demand[j]) > tol {
			return fmt.Errorf("transport: column %d receives %g, demand is %g", j, cs, p.Demand[j])
		}
	}
	return nil
}

// CheckOptimal verifies a simplex solution via strong duality: the
// duals must be feasible (u_i + v_j <= c_ij everywhere up to tol) and
// the dual objective sum_i supply_i*u_i + sum_j demand_j*v_j must match
// the primal objective. A solution passing both checks is provably
// optimal irrespective of how it was computed.
func CheckOptimal(p Problem, sol *Solution, tol float64) error {
	if sol.DualU == nil || sol.DualV == nil {
		return errors.New("transport: solution carries no duals")
	}
	if err := CheckFeasible(p, sol.Flow, tol); err != nil {
		return err
	}
	for i, u := range sol.DualU {
		for j, v := range sol.DualV {
			if u+v > p.Cost[i][j]+tol {
				return fmt.Errorf("transport: infeasible dual u[%d]+v[%d] = %g > cost %g", i, j, u+v, p.Cost[i][j])
			}
		}
	}
	var dual float64
	for i, u := range sol.DualU {
		dual += p.Supply[i] * u
	}
	for j, v := range sol.DualV {
		dual += p.Demand[j] * v
	}
	if math.Abs(dual-sol.Objective) > tol*(1+math.Abs(sol.Objective)) {
		return fmt.Errorf("transport: duality gap: primal %g, dual %g", sol.Objective, dual)
	}
	return nil
}
