// Command perfbench is the repository's benchmark: one command that builds
// a NICEKV deployment per workload through cluster's public constructors,
// drives it from its own sim procs, checks the outputs, and reports
// simulated performance (what the modelled system delivers, in sim time)
// beside simulator performance (the host time and memory spent computing
// it). NOTES.md in this directory explains the workloads and metrics.
//
// Usage (normally through run.sh, which builds this package first):
//
//	perfbench --workload mixed-durable --seed 7 --seconds 20 --trace 0
//
// A run repeats one fixed-size simulation of the workload ("rep") until
// the time budget is spent. Every rep of a run uses the same seed, so all
// simulated metrics must agree exactly across reps (the determinism
// check); host metrics are the median over reps. The last line of
// standard output is a JSON object with the keys correct, attempted,
// failed and metrics; the exit code is non-zero when an output or
// determinism check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a plain run (--trace 0) reports in its result line;
// BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"get_tail_us", "us"},
	{"wire_bytes_per_op", "B/op"},
	{"setup_s", "s"},
	{"run_s", "s"},
	{"live_heap_mb", "MB"},
}

// perLayer is what a traced run (--trace 1) reports in its result line.
var perLayer = []metricDef{
	{"host.sim", "share"},
	{"host.gc", "share"},
	{"host.sched", "share"},
	{"host.alloc", "share"},
	{"host.netsim", "share"},
	{"host.openflow", "share"},
	{"host.switchcache", "share"},
	{"host.controller", "share"},
	{"host.harmonia", "share"},
	{"host.transport", "share"},
	{"host.core", "share"},
	{"host.kvstore", "share"},
	{"host.workload", "share"},
	{"host.metrics", "share"},
	{"host.bench", "share"},
	{"host.other", "share"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cycles", "count"},
	{"netsim.pkts_per_op", "pkts/op"},
	{"netsim.max_link_util", "ratio"},
	{"netsim.drops", "count"},
	{"netsim.switch_drops", "count"},
	{"openflow.flow_mods", "count"},
	{"openflow.group_mods", "count"},
	{"openflow.packet_ins", "count"},
	{"switchcache.hit_rate", "ratio"},
	{"switchcache.installs_per_kop", "1/kop"},
	{"switchcache.evictions_per_kop", "1/kop"},
	{"controller.cache_fetches_per_kop", "1/kop"},
	{"harmonia.replica_share", "ratio"},
	{"harmonia.dirty_fallback_frac", "ratio"},
	{"harmonia.overflows", "count"},
	{"core.retries_per_kop", "1/kop"},
	{"core.mean_put_batch", "puts/batch"},
	{"core.gets_coalesced", "count"},
	{"core.gets_held", "count"},
	{"core.aborts", "count"},
	{"storage.records_per_fsync", "rec/fsync"},
	{"storage.fsyncs_per_put", "fsync/put"},
	{"storage.mem_hit_rate", "ratio"},
	{"storage.disk_reads", "count"},
	{"storage.evictions", "count"},
	{"storage.snapshots", "count"},
	{"kvstore.combined_writes", "count"},
	{"setup.build_s", "s"},
	{"setup.settle_s", "s"},
	{"setup.preload_s", "s"},
	{"controller.node_msgs", "count"},
	{"trace.overhead_s", "s"},
}

// result is the last line of standard output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]metricRecord `json:"metrics"`
}

type metricRecord struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envStamp ties host metrics to the machine and build that produced them.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	Command    string `json:"command"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "host-time budget for the repeated reps")
	traceFlag := flag.Int("trace", 0, "1 = traced run: CPU profile, span log and per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span logs and result records")
	commit := flag.String("commit", "unknown", "commit the binary was built from (recorded in the result)")
	flag.Parse()

	if err := checkManifest("BENCHMARK.json"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	traced := *traceFlag == 1
	// One simulation runs at a time and passes a single run token between
	// goroutines. A second P turns each handoff into a cross-thread
	// wake-up whose cost depends on what else the machine runs, which made
	// run_s noisier on a shared 2-core box.
	runtime.GOMAXPROCS(1)

	env := envStamp{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: *commit, Seed: *seed, Workload: w.name, Trace: traced,
		Command: commandLine(),
	}

	// Plain reps fill the budget (half of it in a traced run, whose
	// other half runs traced reps); at least two reps always run so the
	// determinism check has a pair to compare.
	start := time.Now()
	elapsed := func() float64 { return time.Since(start).Seconds() }
	var plain, tracedReps []*rep
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	plainBudget := *seconds
	if traced {
		plainBudget = *seconds / 2
	}
	for len(plain) == 0 || (len(plain) < 2 && !traced) || elapsed() < plainBudget {
		r, err := runRep(w, *seed, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: %v\n", w.name, len(plain), err)
			return 1
		}
		plain = append(plain, r)
	}
	if traced {
		for len(tracedReps) == 0 || elapsed() < *seconds {
			r, err := runRep(w, *seed, tr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s traced rep %d: %v\n", w.name, len(tracedReps), err)
				return 1
			}
			tracedReps = append(tracedReps, r)
		}
	}
	all := append(append([]*rep{}, plain...), tracedReps...)

	var problems []string
	for i, r := range all {
		for _, c := range r.checkErrs {
			problems = append(problems, fmt.Sprintf("rep %d: output check: %s", i, c))
		}
		if i > 0 {
			for _, d := range r.fingerprint.diff(all[0].fingerprint) {
				problems = append(problems, fmt.Sprintf("rep %d vs rep 0: determinism: %s", i, d))
			}
		}
	}

	// attempted and failed are the counts of one simulation. Every rep
	// replays the same seed (the determinism check holds them equal), so
	// summing over reps would only scale them by how many reps the host
	// managed to run in the budget.
	res := result{
		Correct: len(problems) == 0, Metrics: map[string]metricRecord{},
		Attempted: all[0].attempted, Failed: all[0].failed,
	}
	values := summarize(plain, tracedReps)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricRecord{Value: values[m.name], Unit: m.unit}
	}

	printReport(w, env, plain, tracedReps, values)
	if traced {
		path, err := tr.write(*outDir, w.name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: span log: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	}
	if err := writeRecord(*outDir, env, values, res, all); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result record: %v\n", err)
		return 1
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env: %s\n", envLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// checkManifest verifies that BENCHMARK.json, when present in the
// working directory, lists exactly the workloads and metrics this
// program reports, so the two cannot drift apart.
func checkManifest(path string) error {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	type entry struct{ Name, Unit string }
	var m struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(got []entry, want []metricDef) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				return false
			}
		}
		return true
	}
	var wls []metricDef
	for _, n := range workloadNames() {
		wls = append(wls, metricDef{name: n})
	}
	if !same(m.Workloads, wls) || !same(m.EndToEnd, endToEnd) || !same(m.PerLayer, perLayer) {
		return fmt.Errorf("%s does not list this program's workloads and metrics in order", path)
	}
	return nil
}

// commandLine reconstructs the invocation as the caller typed it; run.sh
// passes its own command line through PERFBENCH_COMMAND.
func commandLine() string {
	if c := os.Getenv("PERFBENCH_COMMAND"); c != "" {
		return c
	}
	return strings.Join(os.Args, " ")
}

// summarize folds the reps into one value per reported metric. Simulated
// metrics come from the first rep (all reps agree, or the determinism
// check fails); host metrics are medians over the plain reps, and the
// per-layer host shares come from the traced reps' CPU profiles.
func summarize(plain, traced []*rep) map[string]float64 {
	v := map[string]float64{}
	for k, x := range plain[0].fingerprint.metrics {
		v[k] = x
	}
	med := func(f func(*rep) float64) float64 {
		xs := make([]float64, len(plain))
		for i, r := range plain {
			xs[i] = f(r)
		}
		return median(xs)
	}
	v["setup_s"] = med(func(r *rep) float64 { return r.buildS + r.settleS + r.preloadS })
	v["run_s"] = med(func(r *rep) float64 { return r.runS })
	v["live_heap_mb"] = med(func(r *rep) float64 { return r.liveHeapMB })
	v["setup.build_s"] = med(func(r *rep) float64 { return r.buildS })
	v["setup.settle_s"] = med(func(r *rep) float64 { return r.settleS })
	v["setup.preload_s"] = med(func(r *rep) float64 { return r.preloadS })
	v["runtime.alloc_bytes_per_op"] = med(func(r *rep) float64 { return r.allocBytesPerOp })
	v["runtime.gc_cycles"] = med(func(r *rep) float64 { return r.gcCycles })
	if len(traced) > 0 {
		xs := make([]float64, len(traced))
		var prof layerSamples
		for i, r := range traced {
			xs[i] = r.runS
			prof.add(r.profile)
		}
		v["trace.overhead_s"] = median(xs) - v["run_s"]
		for layer, share := range prof.shares() {
			v["host."+layer] = share
		}
	}
	return v
}

// printReport writes the human-readable summary: every end-to-end metric
// (including the put and failure metrics the result line carries only in
// traced runs), then the per-layer metrics when traced.
func printReport(w *workload, env envStamp, plain, traced []*rep, v map[string]float64) {
	fp := plain[0].fingerprint
	tail := fmt.Sprintf("p%g", plain[0].tailPct)
	fmt.Printf("workload %s (seed %d); see perfbench/NOTES.md\n", w.name, env.Seed)
	fmt.Printf("reps: %d plain, %d traced; gets %d, puts %d per rep; tails are %s\n",
		len(plain), len(traced), fp.gets, fp.puts, tail)
	rows := []struct {
		name, unit, kind string
		value            float64
		note             string
	}{
		{"ops_per_s", "ops/s", "sim", v["ops_per_s"], ""},
		{"get_p50_us", "us", "sim", v["get_p50_us"], fmt.Sprintf("n=%d", fp.gets)},
		{"get_tail_us", "us", "sim", v["get_tail_us"], fmt.Sprintf("%s, n=%d", tail, fp.gets)},
		{"put_p50_us", "us", "sim", v["put_p50_us"], fmt.Sprintf("n=%d", fp.puts)},
		{"put_tail_us", "us", "sim", v["put_tail_us"], fmt.Sprintf("%s, n=%d", tail, fp.puts)},
		{"failed_frac", "ratio", "sim", v["failed_frac"], fmt.Sprintf("%d of %d attempted", plain[0].failed, plain[0].attempted)},
		{"wire_bytes_per_op", "B/op", "sim", v["wire_bytes_per_op"], ""},
		{"setup_s", "s", "host", v["setup_s"], fmt.Sprintf("median of %d", len(plain))},
		{"run_s", "s", "host", v["run_s"], fmt.Sprintf("median of %d", len(plain))},
		{"live_heap_mb", "MB", "host", v["live_heap_mb"], ""},
	}
	for _, r := range rows {
		if fp.puts == 0 && strings.HasPrefix(r.name, "put_") {
			fmt.Printf("  %-20s %14s %-6s %-4s (no puts in this workload)\n", r.name, "n/a", r.unit, r.kind)
			continue
		}
		fmt.Printf("  %-20s %14.4f %-6s %-4s %s\n", r.name, r.value, r.unit, r.kind, r.note)
	}
	if len(traced) == 0 {
		return
	}
	fmt.Println("per-layer:")
	for _, m := range perLayer {
		fmt.Printf("  %-34s %14.6f %s\n", m.name, v[m.name], m.unit)
	}
}

// repHost is one rep's host timings in the result record.
type repHost struct {
	Traced  bool    `json:"traced"`
	SetupS  float64 `json:"setup_s"`
	RunS    float64 `json:"run_s"`
	HeapMB  float64 `json:"live_heap_mb"`
	GCCount float64 `json:"gc_cycles"`
}

// writeRecord stores the run's full record (environment stamp, every
// computed metric, each rep's host timings, the result line) beside the
// span logs.
func writeRecord(dir string, env envStamp, values map[string]float64, res result, reps []*rep) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if env.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-trace%d.json", env.Workload, env.Seed, trace))
	hosts := make([]repHost, len(reps))
	for i, r := range reps {
		hosts[i] = repHost{
			Traced: r.profile != nil, SetupS: r.buildS + r.settleS + r.preloadS,
			RunS: r.runS, HeapMB: r.liveHeapMB, GCCount: r.gcCycles,
		}
	}
	b, err := json.MarshalIndent(struct {
		Env     envStamp           `json:"env"`
		Values  map[string]float64 `json:"values"`
		Reps    []repHost          `json:"reps"`
		Result  result             `json:"result"`
		Written string             `json:"written"`
	}{env, values, hosts, res, time.Now().UTC().Format(time.RFC3339)}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
