package transport

import (
	"math"
	"math/rand"
	"testing"
)

// tiedProblem builds an m x n problem whose costs come from a handful
// of small integers, so most rows and columns hold tied entries, and
// whose marginals are small integer counts (many of them zero) over a
// common total, so Vogel's supply/demand comparisons tie too.
func tiedProblem(rng *rand.Rand, m, n int) Problem {
	p := Problem{Supply: make([]float64, m), Demand: make([]float64, n), Cost: make([][]float64, m)}
	levels := 1 + rng.Intn(4)
	for i := range p.Cost {
		p.Cost[i] = make([]float64, n)
		for j := range p.Cost[i] {
			p.Cost[i][j] = float64(rng.Intn(levels))
		}
	}
	for i := range p.Supply {
		if rng.Intn(3) > 0 {
			p.Supply[i] = float64(rng.Intn(4))
		}
	}
	for j := range p.Demand {
		if rng.Intn(3) > 0 {
			p.Demand[j] = float64(rng.Intn(4))
		}
	}
	normalize(p.Supply)
	normalize(p.Demand)
	return p
}

// vogelSnapshot returns the basis membership and the flows of the
// state's current m x n shape, flows as raw bits for exact comparison.
func vogelSnapshot(st *simplexState) (basic []bool, flow []uint64) {
	cells := st.m * st.n
	basic = append([]bool(nil), st.basic[:cells]...)
	flow = make([]uint64, cells)
	for c := range flow {
		flow[c] = math.Float64bits(st.flowBacking[c])
	}
	return basic, flow
}

// TestVogelCursorMatchesScan is the oracle test of the presorted-cursor
// Vogel start: on random problems with heavy cost ties and zero-mass
// rows and columns it must produce exactly the basic cells and flow
// values of the scan Vogel start, on the full dense shape (SolveValue,
// SolveFlow) and on the sparsity-reduced shape (SolveValueBounded).
// Each solver's pooled state is reused across several marginal pairs,
// so cursors left behind by one run must not leak into the next.
func TestVogelCursorMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	problems := 0
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(20)
		n := 1 + rng.Intn(20)
		cost := tiedProblem(rng, m, n).Cost
		s, err := NewSolver(cost)
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		cursor := s.pool.Get().(*simplexState)
		scan := newSimplexState(m, n)
		for rep := 0; rep < 6; rep++ {
			p := tiedProblem(rng, m, n)
			p.Cost = cost
			problems++
			for _, reduced := range []bool{false, true} {
				var snaps [2][]bool
				var flows [2][]uint64
				for k, st := range []*simplexState{cursor, scan} {
					supply, demand := p.Supply, p.Demand
					if reduced {
						supply, demand = st.reduceProblem(p)
					} else {
						st.loadDense(cost, m, n)
					}
					st.initVogel(supply, demand)
					snaps[k], flows[k] = vogelSnapshot(st)
				}
				if cursor.m != scan.m || cursor.n != scan.n {
					t.Fatalf("trial %d rep %d reduced=%v: shapes %dx%d vs %dx%d",
						trial, rep, reduced, cursor.m, cursor.n, scan.m, scan.n)
				}
				for c := range snaps[0] {
					if snaps[0][c] != snaps[1][c] || flows[0][c] != flows[1][c] {
						t.Fatalf("trial %d rep %d reduced=%v %dx%d cell %d: cursor basic=%v flow=%v, scan basic=%v flow=%v\ncost %v\nsupply %v\ndemand %v",
							trial, rep, reduced, cursor.m, cursor.n, c,
							snaps[0][c], math.Float64frombits(flows[0][c]),
							snaps[1][c], math.Float64frombits(flows[1][c]),
							cost, p.Supply, p.Demand)
					}
				}
			}
		}
		s.pool.Put(cursor)
	}
	if problems < 3000 {
		t.Fatalf("covered %d problems, want at least 3000", problems)
	}
}

// TestSolveFlowMatchesSolve checks that a Solver's flow solve is the
// package-level Solve with a presorted Vogel start: identical objective,
// flows and duals, bit for bit, with results copied out of the pool so
// a later solve cannot overwrite them.
func TestSolveFlowMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(16)
		n := 1 + rng.Intn(16)
		var cost [][]float64
		if trial%2 == 0 {
			cost = tiedProblem(rng, m, n).Cost
		} else {
			cost = randomProblem(rng, m, n, false).Cost
		}
		s, err := NewSolver(cost)
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		var prev, prevWant *Solution
		for rep := 0; rep < 4; rep++ {
			p := randomProblem(rng, m, n, rep%2 == 1)
			p.Cost = cost
			got, err := s.SolveFlow(p.Supply, p.Demand)
			if err != nil {
				t.Fatalf("SolveFlow: %v", err)
			}
			want, err := Solve(p)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			sameSolution(t, trial, rep, got, want)
			if prev != nil {
				sameSolution(t, trial, rep-1, prev, prevWant)
			}
			prev, prevWant = got, want
		}
	}
}

func sameSolution(t *testing.T, trial, rep int, got, want *Solution) {
	t.Helper()
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
		got.Iterations != want.Iterations || got.Method != want.Method {
		t.Fatalf("trial %d rep %d: SolveFlow %v/%d/%s, Solve %v/%d/%s", trial, rep,
			got.Objective, got.Iterations, got.Method, want.Objective, want.Iterations, want.Method)
	}
	for i := range want.Flow {
		for j := range want.Flow[i] {
			if math.Float64bits(got.Flow[i][j]) != math.Float64bits(want.Flow[i][j]) {
				t.Fatalf("trial %d rep %d: flow[%d][%d] %v, Solve %v", trial, rep, i, j, got.Flow[i][j], want.Flow[i][j])
			}
		}
	}
	for i := range want.DualU {
		if math.Float64bits(got.DualU[i]) != math.Float64bits(want.DualU[i]) {
			t.Fatalf("trial %d rep %d: u[%d] %v, Solve %v", trial, rep, i, got.DualU[i], want.DualU[i])
		}
	}
	for j := range want.DualV {
		if math.Float64bits(got.DualV[j]) != math.Float64bits(want.DualV[j]) {
			t.Fatalf("trial %d rep %d: v[%d] %v, Solve %v", trial, rep, j, got.DualV[j], want.DualV[j])
		}
	}
}
