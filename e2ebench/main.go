// Command e2ebench is the repository's end-to-end benchmark. It
// generates a fixed corpus and a seeded query order, serves the corpus
// in-process through the public ShardSet API (the object emdserve
// serves), drives one of four workloads for a fixed time, checks every
// answer against an oracle, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer ledger) with their units. The last line of
// standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash e2ebench/run.sh --workload color-knn --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the layer map, the workloads and
// the metric glossary.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	scratch  string // directory for WAL files and span output
	commit   string
	source   string
	scale    scale
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the query order, the ground-truth sample, the churn inserts and the retry jitter")
	seconds := fs.Int("seconds", 10, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced pass and prints the per-layer ledger")
	scratch := fs.String("scratch", ".bench_build", "directory for WAL files and span output")
	commit := fs.String("commit", "none", "git commit of the measured tree (provenance only)")
	source := fs.String("source", "none", "digest of the measured sources (provenance only)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloads[*workload]; !ok {
		return config{}, fmt.Errorf("unknown --workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return config{}, fmt.Errorf("--seconds must be >= 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		scratch:  *scratch,
		commit:   *commit,
		source:   *source,
		scale:    fullScale,
	}, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	rep.print(out)
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // context for the human-readable report
}

// report collects one run's outcome.
type report struct {
	workload   string
	trace      bool
	prov       provenance
	attempted  int
	failed     int // operations that errored unexpectedly, answered wrongly, or lost a mutation
	violations []string
	bitDiffs   int      // repeats equal up to distTol but not byte-identical
	e2e        []metric // the JSON metrics of an untraced run (BENCHMARK.json end_to_end)
	extra      []metric // workload-specific end-to-end metrics, printed only
	layer      []metric // the JSON metrics of a traced run (BENCHMARK.json per_layer)
	ledger     []ledgerRow
	spansPath  string
}

func (r *report) correct() bool { return len(r.violations) == 0 }

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_digest"`
}

func newProvenance(cfg config) provenance {
	return provenance{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    int(cfg.seconds / time.Second),
		Trace:      cfg.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     cfg.commit,
		Source:     cfg.source,
	}
}

// cpuModel reads the processor name for the provenance line; "unknown"
// where /proc/cpuinfo is unavailable.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report and, as the last line, the
// JSON result.
func (r *report) print(w io.Writer) {
	prov, _ := json.Marshal(r.prov) // plain struct of strings and numbers: cannot fail
	fmt.Fprintf(w, "provenance %s\n", prov)
	printMetrics := func(kind string, ms []metric) {
		for _, m := range ms {
			fmt.Fprintf(w, "%-6s %-10s %-32s %14.6g %-6s %s\n", kind, r.workload, m.name, m.value, m.unit, m.note)
		}
	}
	printMetrics("e2e", r.e2e)
	printMetrics("e2e", r.extra)
	printMetrics("layer", r.layer)
	if len(r.ledger) > 0 {
		printLedger(w, r.workload, r.ledger)
	}
	if r.spansPath != "" {
		fmt.Fprintf(w, "spans written to %s\n", r.spansPath)
	}
	if r.bitDiffs > 0 {
		fmt.Fprintf(w, "NOTE %d repeated answers were equal only up to %g, not byte-identical (distances at ~0 differ in sub-ulp noise between solve paths)\n", r.bitDiffs, distTol)
	}
	for _, v := range r.violations {
		fmt.Fprintf(w, "VIOLATION %s\n", v)
	}
	res := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	ms := r.e2e
	if r.trace {
		ms = r.layer
	}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // never produced for end-to-end metrics (run rejects them); a layer that did no work
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	line, _ := json.Marshal(res) // finite floats only: cannot fail
	fmt.Fprintf(w, "%s\n", line)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
