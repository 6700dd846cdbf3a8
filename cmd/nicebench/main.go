// Command nicebench regenerates every figure of the paper's evaluation
// (§6) on the simulated testbed. Each experiment prints the same series
// the paper plots; EXPERIMENTS.md records a paper-vs-measured comparison.
//
// The figure sweeps run their (system, size) grids on all cores by
// default (see internal/cluster.RunCells); -seq forces the sequential
// path, and -compare runs both and reports the speedup. Wall-clock
// timings are printed per figure and written as JSON for tracking across
// commits.
//
// Usage:
//
//	nicebench -experiment all             # everything, paper-scale op counts
//	nicebench -experiment fig5 -ops 200   # one figure, reduced cost
//	nicebench -experiment fig5 -compare   # parallel vs sequential wall clock
//	nicebench -experiment kernel          # kernel + switch-scale micro-benchmarks -> BENCH_kernel.json, BENCH_switch.json
//	nicebench -experiment chaos           # randomized fault schedules + consistency checker
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
)

// experimentRegistry is the single source of truth for -experiment
// names: the flag's usage string, the "all" selection (extended
// experiments run only when named) and the unknown-experiment error are
// all generated from it. Adding an experiment means adding a row here
// and a `want(name)` block in main.
var experimentRegistry = []struct {
	name     string
	extended bool
}{
	{"fig4", false},
	{"fig5", false},
	{"fig6", false},
	{"fig7", false},
	{"fig8", false},
	{"fig9", false},
	{"fig10", false},
	{"fig11", false},
	{"fig12", false},
	{"tables", false},
	{"tab-switch", false},
	{"tab-membership", false},
	{"ycsb-all", true},
	{"scale-out", true},
	{"fabric", true},
	{"quorum-read", true},
	{"kernel", true},
	{"cachesweep", true},
	{"chaos", true},
	{"heavytraffic", true},
	{"storagesweep", true},
	{"batchsweep", true},
	{"ctrlsweep", true},
	{"readscale", true},
}

// isExtended reports whether name runs only when named (never under
// -experiment all).
func isExtended(name string) bool {
	for _, e := range experimentRegistry {
		if e.name == name {
			return e.extended
		}
	}
	return false
}

// experimentNames lists every registered name, core experiments first.
func experimentNames() string {
	var names []string
	for _, extended := range []bool{false, true} {
		for _, e := range experimentRegistry {
			if e.extended == extended {
				names = append(names, e.name)
			}
		}
	}
	return strings.Join(names, " ")
}

// benchEnv records where a measurement was taken; a speedup number is
// meaningless without the core count next to it.
type benchEnv struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func env() benchEnv {
	return benchEnv{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// figResult is one figure's wall-clock measurement.
type figResult struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// SecondsSequential and Speedup are filled by -compare.
	SecondsSequential float64 `json:"seconds_sequential,omitempty"`
	Speedup           float64 `json:"speedup,omitempty"`
}

type figuresReport struct {
	Env      benchEnv    `json:"env"`
	Ops      int         `json:"ops"`
	Seed     int64       `json:"seed"`
	Parallel bool        `json:"parallel"`
	Figures  []figResult `json:"figures"`
}

type kernelResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type kernelReport struct {
	Env        benchEnv       `json:"env"`
	Benchmarks []kernelResult `json:"benchmarks"`
}

func main() {
	var (
		exp      = flag.String("experiment", "all", "which experiment: all, or one of: "+experimentNames())
		ops      = flag.Int("ops", 1000, "operations per measurement point (paper: 1000)")
		ycsbOps  = flag.Int("ycsb-ops", 2000, "YCSB operations per client (paper: 20000)")
		clients  = flag.Int("clients", 10, "YCSB client count (paper: 10)")
		seed     = flag.Int64("seed", 42, "simulation seed")
		parallel = flag.Bool("parallel", true, "run figure grid cells on all cores")
		seq      = flag.Bool("seq", false, "force sequential cell execution (overrides -parallel)")
		compare  = flag.Bool("compare", false, "time each figure both parallel and sequential")
		figOut   = flag.String("figures-out", "BENCH_figures.json", "write figure wall-clock timings here (empty: skip)")
		kernOut  = flag.String("kernel-out", "BENCH_kernel.json", "write kernel micro-benchmarks here (empty: skip)")
		swOut    = flag.String("switch-out", "BENCH_switch.json", "write switch-scale lookup benchmarks here (empty: skip running them)")
		chaosN   = flag.Int("chaos-schedules", 50, "fault schedules per system for -experiment chaos")
		chaosCB  = flag.Float64("chaos-ctrl", 1, "controller-fault weight multiplier for the ctrlchain chaos cell (1 = default mix)")
		ctrlOut  = flag.String("ctrl-out", "BENCH_ctrl.json", "write ctrlsweep failover results here (empty: skip)")
		trafOut  = flag.String("traffic-out", "BENCH_traffic.json", "write heavytraffic sweep results here (empty: skip)")
		storOut  = flag.String("storage-out", "BENCH_storage.json", "write storagesweep results here (empty: skip)")
		batchOut = flag.String("batch-out", "BENCH_batch.json", "write batchsweep results here (empty: skip)")
		batchHv  = flag.Int("batch-heavy-clients", 100_000, "virtual-client fleet size for the batchsweep heavytraffic arm")
		rsOut    = flag.String("readscale-out", "BENCH_readscale.json", "write readscale sweep results here (empty: skip)")
		storHeav = flag.Int("storage-heavy-clients", 100_000, "virtual-client fleet size for the storagesweep heavytraffic arm")
		trafSize = flag.String("traffic-sizes", "", "comma-separated virtual-client fleet sizes for -experiment heavytraffic (default 10000,100000,1000000)")
		kernBase = flag.String("kernel-baseline", "", "compare kernel benchmarks against this JSON baseline; exit non-zero when a gated benchmark regresses >2x or allocates where the baseline did not")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run here (view with: go tool pprof -top <file>)")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit here")
	)
	flag.Parse()

	// stopProfiles flushes any requested pprof output; it runs before every
	// exit path so a failing sweep still leaves a usable profile.
	stopProfiles := func() {}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nicebench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "nicebench:", err)
			os.Exit(1)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("wrote %s\n", *cpuProf)
		}
	}
	if *memProf != "" {
		prev := stopProfiles
		stopProfiles = func() {
			prev()
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nicebench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "nicebench:", err)
				return
			}
			fmt.Printf("wrote %s\n", *memProf)
		}
	}

	pr := cluster.Params{Ops: *ops, Seed: *seed, Seq: *seq || !*parallel}
	// "all" covers the paper's figures and tables; the extended
	// experiments and the kernel micro-benchmarks run when named (see
	// experimentRegistry).
	want := func(name string) bool {
		if *exp == name {
			return true
		}
		return *exp == "all" && !isExtended(name)
	}
	ran := 0

	fail := func(err error) {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "nicebench:", err)
		os.Exit(1)
	}
	show := func(figs ...*cluster.Figure) {
		for _, f := range figs {
			f.Fprint(os.Stdout)
		}
		ran++
	}

	var timings []figResult
	// timeIt measures fn's wall clock under the selected mode. With
	// -compare it re-runs the sweep sequentially (discarding the repeated
	// output) so the report carries both numbers and their ratio.
	timeIt := func(name string, fn func(p cluster.Params) error) {
		t0 := time.Now()
		if err := fn(pr); err != nil {
			fail(err)
		}
		res := figResult{Name: name, Seconds: time.Since(t0).Seconds()}
		if *compare && !pr.Seq {
			sp := pr
			sp.Seq = true
			t1 := time.Now()
			if err := fn(sp); err != nil {
				fail(err)
			}
			res.SecondsSequential = time.Since(t1).Seconds()
			if res.Seconds > 0 {
				res.Speedup = res.SecondsSequential / res.Seconds
			}
			fmt.Printf("-- %s: %.2fs wall (parallel), %.2fs (sequential), %.2fx speedup\n\n",
				name, res.Seconds, res.SecondsSequential, res.Speedup)
		} else {
			fmt.Printf("-- %s: %.2fs wall\n\n", name, res.Seconds)
		}
		timings = append(timings, res)
	}

	if want("fig4") {
		shown := false
		timeIt("fig4", func(p cluster.Params) error {
			fig, err := cluster.Fig4RequestRouting(p)
			if err == nil && !shown {
				shown = true
				show(fig)
			}
			return err
		})
	}
	if want("fig5") || want("fig6") || want("fig7") {
		shown := false
		timeIt("fig5-7", func(p cluster.Params) error {
			f5, f6, f7, err := cluster.ReplicationFigures(p)
			if err != nil || shown {
				return err
			}
			shown = true
			switch {
			case *exp == "all":
				show(f5, f6, f7)
			case want("fig5"):
				show(f5)
			case want("fig6"):
				show(f6)
			default:
				show(f7)
			}
			return nil
		})
	}
	if want("fig8") {
		qp := pr
		if *exp == "all" && qp.Ops > 100 {
			qp.Ops = 100 // 1 MB x 1000 puts x 8 configs is slow; cap in 'all' mode
		}
		shown := false
		timeIt("fig8", func(p cluster.Params) error {
			p.Ops = qp.Ops
			a, b, err := cluster.Fig8Quorum(p)
			if err == nil && !shown {
				shown = true
				show(a, b)
			}
			return err
		})
	}
	if want("fig9") {
		shown := false
		timeIt("fig9", func(p cluster.Params) error {
			figs, err := cluster.Fig9Consistency(p)
			if err == nil && !shown {
				shown = true
				for _, size := range cluster.ConsistencySizes {
					show(figs[size])
				}
			}
			return err
		})
	}
	if want("fig10") {
		shown := false
		timeIt("fig10", func(p cluster.Params) error {
			figs, err := cluster.Fig10LoadBalancing(p)
			if err == nil && !shown {
				shown = true
				for _, size := range cluster.ConsistencySizes {
					show(figs[size])
				}
			}
			return err
		})
	}
	if want("fig11") {
		t0 := time.Now()
		res, err := cluster.Fig11FaultTolerance(cluster.DefaultFTParams())
		if err != nil {
			fail(err)
		}
		show(res.Figure())
		dt := time.Since(t0).Seconds()
		fmt.Printf("-- fig11: %.2fs wall\n\n", dt)
		timings = append(timings, figResult{Name: "fig11", Seconds: dt})
	}
	if want("fig12") {
		shown := false
		timeIt("fig12", func(p cluster.Params) error {
			p.Ops = *ycsbOps
			fig, err := cluster.Fig12YCSB(p, *clients)
			if err == nil && !shown {
				shown = true
				show(fig)
			}
			return err
		})
	}
	if want("ycsb-all") {
		fig, err := cluster.YCSBAllWorkloads(cluster.Params{Ops: *ycsbOps, Seed: *seed, Seq: pr.Seq}, *clients)
		if err != nil {
			fail(err)
		}
		show(fig)
	}
	if want("scale-out") {
		fig, err := cluster.ScaleOutThroughput(pr)
		if err != nil {
			fail(err)
		}
		show(fig)
	}
	if want("quorum-read") {
		fig, err := cluster.QuorumReadOverhead(pr)
		if err != nil {
			fail(err)
		}
		show(fig)
	}
	if want("cachesweep") {
		shown := false
		timeIt("cachesweep", func(p cluster.Params) error {
			figs, err := cluster.CacheSweep(p)
			if err == nil && !shown {
				shown = true
				show(figs...)
			}
			return err
		})
	}
	if want("chaos") {
		t0 := time.Now()
		rep, err := cluster.RunChaos(pr, *chaosN, *chaosCB)
		if err != nil {
			fail(err)
		}
		rep.Fprint(os.Stdout)
		fmt.Printf("-- chaos: %.2fs wall\n\n", time.Since(t0).Seconds())
		ran++
		if len(rep.Violating()) > 0 || !rep.DeterminismOK {
			stopProfiles()
			os.Exit(1)
		}
	}
	if want("ctrlsweep") {
		t0 := time.Now()
		rep, err := cluster.CtrlFailoverSweep(pr, 10)
		if err != nil {
			fail(err)
		}
		rep.Fprint(os.Stdout)
		fmt.Printf("-- ctrlsweep: %.2fs wall\n\n", time.Since(t0).Seconds())
		if *ctrlOut != "" {
			report := struct {
				Env  benchEnv `json:"env"`
				Seed int64    `json:"seed"`
				*cluster.CtrlReport
			}{env(), *seed, rep}
			if err := writeJSON(*ctrlOut, report); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *ctrlOut)
		}
		ran++
	}
	if want("heavytraffic") {
		sizes, err := parseSizes(*trafSize)
		if err != nil {
			fail(err)
		}
		t0 := time.Now()
		cells, err := cluster.HeavyTrafficSweep(pr, sizes)
		if err != nil {
			fail(err)
		}
		fmt.Println("heavytraffic: open-loop fleet sweep (aggregate offered load held constant)")
		fmt.Printf("%-16s %9s %11s %11s %9s %9s %8s %8s\n",
			"system", "clients", "offered/s", "achieved/s", "p50us", "p99us", "timeout", "cachehit")
		for _, c := range cells {
			fmt.Printf("%-16s %9d %11.0f %11.0f %9.1f %9.1f %7.2f%% %7.2f%%\n",
				c.System, c.Clients, c.Offered, c.Achieved, c.P50Micros, c.P99Micros,
				100*c.TimeoutFrac, 100*c.CacheHit)
		}
		fmt.Printf("-- heavytraffic: %.2fs wall\n\n", time.Since(t0).Seconds())
		if *trafOut != "" {
			report := struct {
				Env   benchEnv              `json:"env"`
				Seed  int64                 `json:"seed"`
				Cells []cluster.TrafficCell `json:"cells"`
			}{env(), *seed, cells}
			if err := writeJSON(*trafOut, report); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *trafOut)
		}
		ran++
	}
	if want("storagesweep") {
		t0 := time.Now()
		rep, err := cluster.StorageSweep(pr, *storHeav)
		if err != nil {
			fail(err)
		}
		fmt.Printf("storagesweep: durable engine under memory pressure (%d records x %dB, R=3, %d nodes)\n",
			rep.Records, rep.ValueSize, rep.Nodes)
		fmt.Printf("%-14s %6s %10s %9s %8s %8s %7s %8s %7s %6s %8s\n",
			"system", "ws/bud", "budget", "ops/s", "getp99us", "putp99us", "memhit", "evict", "fsync", "snaps", "cachehit")
		for _, c := range rep.Cells {
			fmt.Printf("%-14s %6.1f %10s %9.0f %8.1f %8.1f %6.1f%% %8d %7d %6d %7.2f%%\n",
				c.System, c.Ratio, metrics.FormatBytes(c.BudgetBytes), c.Tput,
				c.GetP99Micros, c.PutP99Micros, 100*c.MemHitRatio,
				c.Evictions, c.Fsyncs, c.Snapshots, 100*c.CacheHit)
		}
		for _, h := range rep.Heavy {
			fmt.Printf("%-14s clients=%d offered/s=%.0f achieved/s=%.0f p99us=%.1f timeout=%.2f%% memhit=%.1f%% evictions=%d\n",
				h.System, h.Clients, h.Offered, h.Achieved, h.P99Micros,
				100*h.TimeoutFrac, 100*h.MemHitFrac, h.Evictions)
		}
		fmt.Printf("-- storagesweep: %.2fs wall\n\n", time.Since(t0).Seconds())
		if *storOut != "" {
			report := struct {
				Env  benchEnv `json:"env"`
				Seed int64    `json:"seed"`
				*cluster.StorageReport
			}{env(), *seed, rep}
			if err := writeJSON(*storOut, report); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *storOut)
		}
		ran++
	}
	if want("batchsweep") {
		t0 := time.Now()
		rep, err := cluster.BatchSweep(pr, *batchHv)
		if err != nil {
			fail(err)
		}
		fmt.Printf("batchsweep: end-to-end batching (%d clients x %d ops, %dB values, %d nodes)\n",
			rep.Clients, rep.OpsPerClient, rep.ValueSize, rep.Nodes)
		fmt.Printf("%-18s %5s %3s %9s %8s %9s %8s %7s %6s %7s %7s %7s %6s\n",
			"system", "batch", "gc", "puts/s", "putp99us", "gets/s", "getp99us",
			"commits", "mean", "coalget", "fsyncs", "coalfs", "sync/b")
		for _, c := range rep.Cells {
			gc := "-"
			if c.GroupCommit {
				gc = "on"
			}
			fmt.Printf("%-18s %5d %3s %9.0f %8.1f %9.0f %8.1f %7d %6.2f %7d %7d %7d %6.2f\n",
				c.System, c.Batch, gc, c.PutTput, c.PutP99Micros, c.GetTput, c.GetP99Micros,
				c.BatchCommits, c.MeanPutBatch, c.GetsCoalesced,
				c.Fsyncs, c.CoalescedSyncs, c.MeanSyncBatch)
		}
		for _, h := range rep.Heavy {
			fmt.Printf("%-18s clients=%d offered/s=%.0f achieved/s=%.0f p99us=%.1f timeout=%.2f%% memhit=%.1f%%\n",
				h.System, h.Clients, h.Offered, h.Achieved, h.P99Micros,
				100*h.TimeoutFrac, 100*h.MemHitFrac)
		}
		fmt.Printf("durable put speedup vs per-op fsync baseline: %.2fx\n", rep.DurableSpeedup)
		fmt.Printf("determinism recheck: ok=%v\n", rep.DeterminismOK)
		fmt.Printf("-- batchsweep: %.2fs wall\n\n", time.Since(t0).Seconds())
		if *batchOut != "" {
			report := struct {
				Env  benchEnv `json:"env"`
				Seed int64    `json:"seed"`
				*cluster.BatchReport
			}{env(), *seed, rep}
			if err := writeJSON(*batchOut, report); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *batchOut)
		}
		ran++
		if !rep.DeterminismOK {
			stopProfiles()
			fmt.Fprintln(os.Stderr, "nicebench: batchsweep determinism recheck failed")
			os.Exit(1)
		}
	}
	if want("readscale") {
		t0 := time.Now()
		rep, err := cluster.ReadScaleSweep(pr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("readscale: get scaling vs replication factor (%d nodes, %d clients, %d keys on one partition)\n",
			rep.Nodes, rep.Clients, rep.Keys)
		fmt.Printf("%-18s %3s %7s %10s %9s %9s %9s %9s %9s\n",
			"system", "R", "putfrac", "gets/s", "p99us", "local", "replica", "routed", "fallback")
		for _, c := range rep.Cells {
			fmt.Printf("%-18s %3d %6.0f%% %10.0f %9.1f %9d %9d %9d %9d\n",
				c.System, c.R, 100*c.PutFrac, c.GetTput, c.GetP99Micros,
				c.ServedLocal, c.ServedReplica, c.Routed, c.Fallbacks)
		}
		for _, sys := range []string{"NICEKV", "NICEKV+quorum", "NICEKV+LB", "NICEKV+harmonia"} {
			if v, ok := rep.SpeedupAtMaxR[sys]; ok {
				fmt.Printf("read-only speedup at R=%d: %-18s %.2fx\n",
					rep.Replicas[len(rep.Replicas)-1], sys, v)
			}
		}
		cluster.ReadScaleFigure(rep).Fprint(os.Stdout)
		fmt.Printf("-- readscale: %.2fs wall\n\n", time.Since(t0).Seconds())
		if *rsOut != "" {
			report := struct {
				Env  benchEnv `json:"env"`
				Seed int64    `json:"seed"`
				*cluster.ReadScaleReport
			}{env(), *seed, rep}
			if err := writeJSON(*rsOut, report); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *rsOut)
		}
		ran++
	}
	if want("fabric") {
		fig, err := cluster.FabricComparison(pr)
		if err != nil {
			fail(err)
		}
		show(fig)
	}
	if want("tables") || want("tab-switch") || want("tab-membership") {
		sw, err := cluster.SwitchScalabilityTable()
		if err != nil {
			fail(err)
		}
		mem, err := cluster.MembershipScalabilityTable()
		if err != nil {
			fail(err)
		}
		show(sw, mem)
	}
	if *exp == "kernel" {
		report := kernelReport{Env: env(), Benchmarks: kernelBenchmarks()}
		for _, b := range report.Benchmarks {
			fmt.Printf("%-22s %12.1f ns/op %6d B/op %4d allocs/op\n",
				b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
		}
		if *kernOut != "" {
			if err := writeJSON(*kernOut, report); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *kernOut)
		}
		if *swOut != "" {
			if err := writeJSON(*swOut, switchBenchmarks()); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *swOut)
		}
		if *kernBase != "" {
			if err := checkKernelBaseline(*kernBase, report.Benchmarks); err != nil {
				fail(err)
			}
		}
		ran++
	}

	if ran == 0 {
		stopProfiles()
		fmt.Fprintf(os.Stderr, "nicebench: unknown experiment %q (want one of: all %s)\n",
			*exp, experimentNames())
		os.Exit(2)
	}

	if len(timings) > 0 && *figOut != "" {
		report := figuresReport{Env: env(), Ops: *ops, Seed: *seed, Parallel: !pr.Seq, Figures: timings}
		if err := writeJSON(*figOut, report); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *figOut)
	}
	stopProfiles()
}

// kernelGates are the benchmarks whose regression fails a -kernel-baseline
// check; the rest are reported for information only. The 2x threshold
// absorbs machine-to-machine variance between the committed baseline and a
// CI runner while still catching a lost fast path. Allocation counts do
// not vary by machine, so a gated benchmark at 0 allocs/op in the
// baseline must stay there exactly.
var kernelGates = map[string]bool{
	"SleepWake":        true,
	"EventChurn":       true,
	"QueueHandoff":     true,
	"BroadcastWake":    true,
	"GroupCommit":      true,
	"CancelledTimeout": true,
}

// checkKernelBaseline compares measured kernel benchmarks against a
// committed baseline file and errors when a gated benchmark regressed by
// more than 2x or allocates where its baseline did not.
func checkKernelBaseline(path string, got []kernelResult) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base kernelReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	baseline := make(map[string]kernelResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	var regressed []string
	fmt.Printf("kernel benchmark delta vs %s:\n", path)
	for _, g := range got {
		b, ok := baseline[g.Name]
		if !ok || b.NsPerOp <= 0 {
			fmt.Printf("  %-22s %10.1f ns/op (no baseline)\n", g.Name, g.NsPerOp)
			continue
		}
		ratio := g.NsPerOp / b.NsPerOp
		gate := " "
		if kernelGates[g.Name] {
			gate = "*"
		}
		fmt.Printf("  %s %-20s %10.1f ns/op vs %10.1f baseline (%.2fx)\n",
			gate, g.Name, g.NsPerOp, b.NsPerOp, ratio)
		if kernelGates[g.Name] && ratio > 2 {
			regressed = append(regressed, fmt.Sprintf("%s %.2fx", g.Name, ratio))
		}
		if kernelGates[g.Name] && b.AllocsPerOp == 0 && g.AllocsPerOp > 0 {
			regressed = append(regressed, fmt.Sprintf("%s %d allocs/op", g.Name, g.AllocsPerOp))
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("kernel benchmarks regressed vs %s: %s", path, strings.Join(regressed, ", "))
	}
	return nil
}

// parseSizes parses the -traffic-sizes list; empty means the sweep's
// default 10^4..10^6 decades.
func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var sizes []int
	for _, f := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -traffic-sizes entry %q", f)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchDisk is the disk model under the GroupCommit kernel benchmark: a
// fixed per-write latency, matching the simulated device's write floor.
type benchDisk struct{}

func (benchDisk) ReadDisk(p *sim.Proc, bytes int)  { p.Sleep(60 * time.Microsecond) }
func (benchDisk) WriteDisk(p *sim.Proc, bytes int) { p.Sleep(80 * time.Microsecond) }

// kernelBenchmarks measures the simulation kernel and network substrate
// hot paths via testing.Benchmark, mirroring the package benchmarks in
// internal/sim and internal/netsim so the numbers are trackable without a
// test run.
func kernelBenchmarks() []kernelResult {
	var out []kernelResult
	add := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		out = append(out, kernelResult{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}

	add("EventChurn", func(b *testing.B) {
		s := sim.New(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.After(time.Microsecond, func() {})
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("SleepWake", func(b *testing.B) {
		s := sim.New(1)
		s.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
	add("CancelledTimeout", func(b *testing.B) {
		// The stream-RTO pattern: arm a 25 ms deadline, wake 10 µs later,
		// cancel it. The deadline sits in a coarse wheel bucket by then.
		s := sim.New(1)
		expired := func() { b.Error("cancelled timeout fired") }
		s.Spawn("waiter", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				deadline := s.After(25*time.Millisecond, expired)
				p.Sleep(10 * time.Microsecond)
				deadline.Cancel()
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
	add("QueueHandoff", func(b *testing.B) {
		s := sim.New(1)
		q := sim.NewQueue[int](s)
		s.Spawn("consumer", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				if _, ok := q.Pop(p); !ok {
					return
				}
			}
		})
		s.Spawn("producer", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				q.Push(i)
				p.Sleep(0)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
	add("ProcChurn", func(b *testing.B) {
		s := sim.New(1)
		done := 0
		child := func(q *sim.Proc) { done++ }
		s.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				s.Spawn("child", child)
				p.Sleep(time.Microsecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
	add("BroadcastWake", func(b *testing.B) {
		const fan = 16
		s := sim.New(1)
		c := sim.NewCond(s)
		for i := 0; i < fan; i++ {
			s.Spawn("waiter", func(p *sim.Proc) {
				for j := 0; j < b.N; j++ {
					c.Wait(p)
				}
			})
		}
		s.Spawn("caster", func(p *sim.Proc) {
			for j := 0; j < b.N; j++ {
				p.Sleep(time.Microsecond)
				c.Broadcast()
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
	add("GroupCommit", func(b *testing.B) {
		// Host-time cost of the storage engine's group-commit machinery: 8
		// writers commit and Sync concurrently, so every round coalesces
		// followers onto one leader's fsync. Gated against the baseline —
		// the sync path runs once per durable put in every experiment.
		const writers = 8
		s := sim.New(1)
		cfg := storage.DefaultConfig()
		cfg.SnapshotEvery = 0
		cfg.GroupCommit = true
		cfg.MaxSyncDelay = 20 * time.Microsecond
		e := storage.NewEngine(s, cfg, benchDisk{})
		for w := 0; w < writers; w++ {
			w := w
			s.Spawn("writer", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					e.Commit(fmt.Sprintf("k%d", w), i, 64)
					e.Sync(p)
				}
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		s.Shutdown()
	})
	add("NetHostToHost", func(b *testing.B) {
		s := sim.New(1)
		n := netsim.NewNetwork(s)
		a := n.NewHost("a", netsim.MustParseIP("10.0.0.1"))
		c := n.NewHost("c", netsim.MustParseIP("10.0.0.2"))
		n.Connect(a.Port(), c.Port(), netsim.Gbps(10, time.Microsecond))
		c.SetHandler(func(pkt *netsim.Packet) { n.RecyclePacket(pkt) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pkt := n.NewPacket()
			pkt.DstIP = c.IP()
			pkt.DstMAC = c.MAC()
			pkt.Proto = netsim.ProtoUDP
			pkt.Size = 1400
			a.Send(pkt)
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return out
}
