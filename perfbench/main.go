// Perfbench is the repository's standing benchmark: one command that
// runs a named workload against the program built from this tree, checks
// every answer, and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload transport-serve --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object whose
// metrics are the end-to-end metrics; with --trace 1 the run also wraps
// the calls into each layer in the benchmark's own spans and counters and
// the metrics are the per-layer ones. No instrumentation is added to the
// program: layers are measured from outside, at their public functions.
// See README.md for the workloads, the metrics and the baseline record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics every workload reports untraced. Each applies
// to every workload and is never zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"within_slo_ratio", "ratio"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of the traced run. A layer a workload does
// not exercise reports 0.
var perLayer = []metricDef{
	{"e2e.query_p95_ms", "ms"},
	{"e2e.query_p99_ms", "ms"},
	{"e2e.mutate_p50_ms", "ms"},
	{"e2e.mutate_p90_ms", "ms"},
	{"e2e.stored_bytes_per_fact", "B/fact"},
	{"e2e.error_ratio", "ratio"},
	{"oniond.hit_roundtrip_ms", "ms"},
	{"oniond.resp_bytes_per_row", "B/row"},
	{"serve.hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.disk_hits_per_demotion", "ratio"},
	{"serve.hit_us", "us"},
	{"serve.miss_overhead_us", "us"},
	{"serve.admission_wait_ms", "ms"},
	{"serve.degraded_ratio", "ratio"},
	{"serve.shed_ratio", "ratio"},
	{"core.addfacts_p50_us", "us"},
	{"core.addfacts_p90_us", "us"},
	{"core.recover_s", "s"},
	{"core.articulate_ms", "ms"},
	{"core.query_overhead_us", "us"},
	{"vfs.write_calls_per_fact", "count"},
	{"vfs.syncs_per_mutation", "count"},
	{"vfs.bytes_written_per_user_byte", "ratio"},
	{"persist.snapshots_per_run", "count"},
	{"persist.log_bytes_per_fact", "B/fact"},
	{"persist.snapshot_bytes_per_fact", "B/fact"},
	{"query.parse_us", "us"},
	{"query.plan_us", "us"},
	{"query.exec_p50_ms", "ms"},
	{"query.ns_per_row", "ns"},
	{"query.allocs_per_row", "count"},
	{"query.bytes_per_row", "B"},
	{"query.batch_fill", "rows"},
	{"query.fact_rows_per_result_row", "ratio"},
	{"query.peak_reserved_mb", "MB"},
	{"query.spilled_partitions_per_query", "count"},
	{"query.hybrid_joins_per_query", "count"},
	{"query.projection_spills_per_query", "count"},
	{"query.spill_runs_per_query", "count"},
	{"query.spilled_bytes_per_query", "B"},
	{"kb.add_ns_per_fact", "ns"},
	{"runtime.gc_cycles_per_query", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"self.bench_us_per_op", "us"},
	{"self.serve_us_per_op", "us"},
	{"self.core_us_per_op", "us"},
	{"self.vfs_us_per_op", "us"},
}

// runConfig is what every workload gets.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	oniond  string // daemon binary
	dir     string // this run's private directory
}

// report is what a workload measured.
type report struct {
	e2e     map[string]float64
	layer   map[string]float64
	counts  tally
	correct bool
	header  []string // run provenance, printed before the metrics
	notes   []string // sample counts and other context
	tracer  *tracer
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, correct: true}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one named input set and the function that runs it.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig, rep *report) error
}

var workloads = []workload{
	{"transport-serve", transportWhy, runTransport},
	{"join-analytic", joinWhy, runJoinAnalytic},
	{"capped-chain", chainWhy, runCappedChain},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: transport-serve, join-analytic or capped-chain")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 25, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	oniond := flag.String("oniond", "", "oniond binary built from this tree (transport-serve)")
	workdir := flag.String("workdir", ".bench_build/run", "directory for data dirs, spill files and traces")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *oniond, *workdir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, oniond, workdir string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	dir := filepath.Join(workdir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{seed: seed, seconds: time.Duration(seconds) * time.Second, trace: traced, oniond: oniond, dir: dir}
	rep := newReport()
	if traced {
		rep.tracer = newTracer()
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%v nproc=%d gomaxprocs=%d go=%s\n",
		name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("# why: %s\n", wl.why)
	if err := wl.run(cfg, rep); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, h := range rep.header {
		fmt.Printf("# %s\n", h)
	}
	for _, n := range rep.notes {
		fmt.Printf("# %s\n", n)
	}
	if traced {
		path := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := rep.tracer.write(path); err != nil {
			return err
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	rep.e2e["ok_ratio"] = 1 - rep.counts.errorRatio()
	rep.layer["e2e.error_ratio"] = rep.counts.errorRatio()
	defs, values := endToEnd, rep.e2e
	if traced {
		defs, values = perLayer, rep.layer
	}
	line := resultLine{
		Correct:   rep.correct && rep.counts.Wrong == 0,
		Attempted: rep.counts.attempted(),
		Failed:    rep.counts.errors(),
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !traced {
			missing = append(missing, d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload did not measure %s", strings.Join(missing, ", "))
	}
	if line.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	for k := range values {
		if !hasDef(defs, k) {
			return fmt.Errorf("metric %q is not declared", k)
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func hasDef(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}
