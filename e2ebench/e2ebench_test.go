package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"emdsearch"
)

// tinyScale runs every workload in well under a second of set-up.
var tinyScale = scale{
	colorItems:  150,
	mixItems:    200,
	pool:        8,
	fixedTruth:  2,
	seededTruth: 1,
	churnAdds:   16,
	colorSetups: 2,
	churnPeriod: 20 * time.Millisecond,
	checkpoint:  4,
	openRates:   []float64{20, 40, 60, 80},
	sampled:     4,
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     7,
		seconds:  400 * time.Millisecond,
		trace:    trace,
		scratch:  t.TempDir(),
		commit:   "test",
		source:   "test",
		scale:    tinyScale,
	}
}

type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// lastJSON runs the report printer and decodes its last line.
func lastJSON(t *testing.T, rep *report) jsonResult {
	t.Helper()
	var sb strings.Builder
	rep.print(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, sb.String())
	}
	return res
}

func TestEveryWorkloadRunsAndEmitsItsMetrics(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/plain", true: "/traced"}[trace], func(t *testing.T) {
				rep, err := run(tinyConfig(t, name, trace))
				if err != nil {
					t.Fatal(err)
				}
				res := lastJSON(t, rep)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d violations=%v", res.Correct, res.Failed, res.Attempted, rep.violations)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !trace && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want a positive measurement", m.Name, got.Value)
					}
					if !nameRE.MatchString(m.Name) {
						t.Errorf("metric name %q outside the allowed charset", m.Name)
					}
				}
			})
		}
	}
}

func TestStageNamesNormalise(t *testing.T) {
	for in, want := range map[string][2]string{
		"Q-Red-IM":        {"filter", "q-red-im"},
		"Red-IM":          {"filter", "red-im"},
		"Red-EMD":         {"filter", "red-emd"},
		"Red-EMD-8":       {"filter", "red-emd-8"},
		"Asym-Red-EMD":    {"filter", "asym-red-emd"},
		"MTree(Red-EMD)":  {"index", "index"},
		"VPTree(Red-EMD)": {"index", "index"},
		"Centroid (L2)":   {"filter", "centroid--l2"},
	} {
		layer, norm := layerOfStage(in)
		if layer != want[0] || norm != want[1] {
			t.Errorf("layerOfStage(%q) = %q, %q; want %q, %q", in, layer, norm, want[0], want[1])
		}
		if !nameRE.MatchString("filter." + norm + ".ms_per_q") {
			t.Errorf("normalised %q leaves the metric charset", norm)
		}
	}
}

// TestOracleCatchesCorruptedAnswers corrupts recorded answers on purpose
// and expects the oracle to flag each one.
func TestOracleCatchesCorruptedAnswers(t *testing.T) {
	cfg := tinyConfig(t, "color-knn", false)
	b, err := newBench(cfg, workloads["color-knn"])
	if err != nil {
		t.Fatal(err)
	}
	if err := b.prepareTruth(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.setupRepeated(1); err != nil {
		t.Fatal(err)
	}
	defer b.set.Close()
	ask := func(q int) opRec {
		rec := opRec{kind: opKNN, q: q, due: time.Now()}
		b.query(context.Background(), &rec, false)
		if rec.err != nil {
			t.Fatal(rec.err)
		}
		return rec
	}
	clean := []opRec{ask(0), ask(0), ask(1)}
	b.checkReads(clean, true)
	if !b.rep.correct() {
		t.Fatalf("clean answers flagged: %v", b.rep.violations)
	}

	corrupt := map[string]func(res []emdsearch.Result){
		"swapped item": func(res []emdsearch.Result) {
			res[0].Index, res[len(res)-1].Index = res[len(res)-1].Index, res[0].Index
		},
		"wrong dist":    func(res []emdsearch.Result) { res[2].Dist *= 1.001 },
		"foreign item":  func(res []emdsearch.Result) { res[1].Index = len(b.db) + 5 },
		"dropped item":  func(res []emdsearch.Result) {},
		"shifted ranks": func(res []emdsearch.Result) { copy(res[3:], res[4:]) },
	}
	for name, mutate := range corrupt {
		b.rep = &report{}
		rec := ask(0)
		res := append([]emdsearch.Result(nil), rec.ans.Results...)
		mutate(res)
		if name == "dropped item" {
			res = res[:len(res)-1]
		}
		rec.ans.Results = res
		b.checkReads([]opRec{rec}, true)
		if b.rep.correct() || b.rep.failed == 0 {
			t.Errorf("%s: corrupted answer passed the oracle", name)
		}
	}

	// A corrupted repeat of a query outside the ground-truth sample is
	// caught by the repeat check alone.
	b.rep = &report{}
	a, c := ask(5), ask(5)
	res := append([]emdsearch.Result(nil), c.ans.Results...)
	res[0].Index, res[1].Index = res[1].Index, res[0].Index
	res[0].Dist, res[1].Dist = res[1].Dist+0.01, res[0].Dist
	c.ans.Results = res
	b.checkReads([]opRec{a, c}, true)
	if b.rep.correct() {
		t.Error("corrupted repeat passed the oracle")
	}

	// A degraded answer whose certificate excludes the exact distance.
	b.rep = &report{}
	d := ask(1)
	d.ans.Degraded = true
	d.ans.Anytime = []emdsearch.AnytimeItem{{Index: d.ans.Results[0].Index, Lower: d.ans.Results[0].Dist + 0.5, Upper: d.ans.Results[0].Dist + 1}}
	b.checkReads([]opRec{d}, true)
	if b.rep.correct() {
		t.Error("unsound anytime interval passed the oracle")
	}
}

func TestChurnAnswerRejectsAcknowledgedDelete(t *testing.T) {
	res := []emdsearch.Result{{Index: 3, Dist: 0.1}}
	for i := 1; i < k; i++ {
		res = append(res, emdsearch.Result{Index: 100 + i, Dist: 0.1 + float64(i)})
	}
	if err := checkChurnAnswer(res, 3); err != nil {
		t.Fatalf("item 3 deleted after the query started was rejected: %v", err)
	}
	if err := checkChurnAnswer(res, 4); err == nil {
		t.Fatal("item 3 deleted before the query started was accepted")
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	var d dist
	for i := 1; i <= 100; i++ {
		d = append(d, float64(i))
	}
	v, pct := d.tail()
	if v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	if m := d.median(); m != 50.5 {
		t.Fatalf("median of 1..100 = %v", m)
	}
}
