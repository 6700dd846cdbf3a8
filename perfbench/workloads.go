package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/checker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/openflow"
	"repro/internal/sim"
	gen "repro/internal/workload"
)

// workload is one traffic mix on one deployment. body runs a single rep:
// build, settle, preload, then the measured phase, filling r.
type workload struct {
	name string
	body func(seed int64, tr *tracer, r *rep, root int64) error
}

var workloads = []*workload{
	{name: "read-skew-open", body: readSkewOpen},
	{name: "mixed-durable", body: mixedDurable},
	{name: "bulk-replicate", body: bulkReplicate},
}

// Workload sizes: each rep is a fixed amount of simulated work, so its
// simulated metrics depend on the seed alone.
const (
	readSkewClients  = 100_000
	readSkewRate     = 60_000
	readSkewDuration = 1500 * time.Millisecond
	readSkewRecords  = 4096
	readSkewValue    = 512

	mixedClients   = 16
	mixedOps       = 3000 // per client
	mixedRecords   = 4096
	mixedValue     = 1024
	mixedNodes     = 6
	mixedR         = 3
	mixedMemFactor = 4 // per-node working set ÷ per-node memory budget

	bulkClients = 2
	bulkOps     = 3000 // per client
	bulkKeys    = 64
	bulkValue   = 256 << 10
)

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// rep is the outcome of one simulation of a workload.
type rep struct {
	fingerprint fingerprint
	// tailPct is the percentile reported as *_tail_us: the highest of
	// p99/p99.9/p99.99 that leaves at least ten samples beyond it at the
	// workload's per-rep sample count.
	tailPct   float64
	attempted int64
	failed    int64
	checkErrs []string

	// Host time and memory.
	buildS, settleS, preloadS, runS float64
	liveHeapMB                      float64
	allocBytesPerOp, gcCycles       float64
	profile                         layerSamples // traced reps only
}

// fingerprint is everything simulated about a rep. Two reps of the same
// seed must produce equal fingerprints. The metrics include the
// attempted and failed counts.
type fingerprint struct {
	metrics    map[string]float64
	gets, puts int
	histHash   uint64
}

func (f fingerprint) diff(o fingerprint) []string {
	var out []string
	if f.gets != o.gets || f.puts != o.puts {
		out = append(out, fmt.Sprintf("sample counts %d/%d vs %d/%d", f.gets, f.puts, o.gets, o.puts))
	}
	if f.histHash != o.histHash {
		out = append(out, fmt.Sprintf("history hash %016x vs %016x", f.histHash, o.histHash))
	}
	var names []string
	for k := range f.metrics {
		names = append(names, k)
	}
	for k := range o.metrics {
		if _, ok := f.metrics[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		a, aok := f.metrics[k]
		b, bok := o.metrics[k]
		if a != b || aok != bok {
			out = append(out, fmt.Sprintf("%s %v vs %v", k, a, b))
		}
	}
	return out
}

// runRep runs one rep of w; tr is nil for an untraced rep.
func runRep(w *workload, seed int64, tr *tracer) (*rep, error) {
	runtime.GC() // start each rep from a collected heap
	r := &rep{}
	root := tr.begin("workload", 0)
	err := w.body(seed, tr, r, root)
	tr.end(root)
	return r, err
}

// timed runs one set-up step as a host-time span.
func timed(tr *tracer, parent int64, name string, dst *float64, fn func() error) error {
	id := tr.begin(name, parent)
	t0 := time.Now()
	err := fn()
	*dst = time.Since(t0).Seconds()
	tr.end(id)
	return err
}

// drive runs fn in a sim proc until it returns, then stops the
// simulation (periodic heartbeats never let the event queue drain).
func drive(d *cluster.NICE, fn func(p *sim.Proc)) error {
	d.Sim.Spawn("perfbench-main", func(p *sim.Proc) {
		fn(p)
		d.Sim.Stop()
	})
	return d.Sim.Run()
}

// readSkewOpen is heavytraffic's nicekv+lb+cache arm: 100k virtual
// clients offering 60k zipfian gets/s through the open-loop traffic
// engine. The switch cache starts empty; the measured phase includes its
// warm-up.
func readSkewOpen(seed int64, tr *tracer, r *rep, root int64) error {
	opts := cluster.DefaultOptions()
	opts.Nodes = 6
	opts.R = 3
	opts.Clients = 4 // preloaders only; the fleet is virtual
	opts.Seed = seed
	opts.CPUPerOp = 10 * time.Microsecond
	opts.TrafficGateways = true
	opts.LoadBalance = true
	opts.Cache = true
	opts.CacheCapacity = 512

	var d *cluster.NICE
	var eng *cluster.TrafficEngine
	_ = timed(tr, root, "setup.build", &r.buildS, func() error {
		d = cluster.NewNICELeafSpine(opts, 4)
		eng = cluster.NewTrafficEngine(d, cluster.TrafficOptions{
			Clients:   readSkewClients,
			Rate:      readSkewRate,
			Duration:  readSkewDuration,
			Records:   readSkewRecords,
			ValueSize: readSkewValue,
			Seed:      seed,
		})
		return nil
	})
	defer d.Close()
	if err := timed(tr, root, "setup.settle", &r.settleS, d.Settle); err != nil {
		return fmt.Errorf("settle: %w", err)
	}
	if err := timed(tr, root, "setup.preload", &r.preloadS, func() error {
		var perr error
		err := drive(d, func(p *sim.Proc) { perr = eng.Preload(p) })
		return errors.Join(err, perr)
	}); err != nil {
		return fmt.Errorf("preload: %w", err)
	}

	var res cluster.TrafficResult
	win, err := measure(d, r, tr, root, func(p *sim.Proc, _ int64) { res = eng.Run(p) })
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if res.NotFound != 0 {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf("%d gets returned not-found for preloaded keys", res.NotFound))
	}
	if res.Issued != res.Completed+res.TimedOut {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf("issued %d != completed %d + timed out %d", res.Issued, res.Completed, res.TimedOut))
	}
	if beyond(int(res.Completed), 99) < 10 {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf("p99 of %d completed gets leaves fewer than 10 beyond it", res.Completed))
	}
	r.tailPct = 99
	r.attempted, r.failed = res.Issued, res.TimedOut
	m := win.layerMetrics(res.Completed, res.TimedOut, 0, 0)
	m["ops_per_s"] = res.Achieved
	m["get_p50_us"] = us(res.P50)
	m["get_tail_us"] = us(res.P99)
	m["failed_frac"] = frac(res.TimedOut, res.Issued)
	r.fingerprint = fingerprint{metrics: m, gets: int(res.Completed)}
	win.hostMetrics(r, res.Completed)
	return nil
}

// mixedDurable is YCSB-A (50/50 get/put, zipfian) from 16 closed-loop
// clients against a single-switch deployment running every write-path
// mechanism: durable engine under memory pressure, group commit, the put
// accumulator, get coalescing and harmonia read spreading.
func mixedDurable(seed int64, tr *tracer, r *rep, root int64) error {
	opts := cluster.DefaultOptions()
	opts.Nodes = mixedNodes
	opts.R = mixedR
	opts.Clients = mixedClients
	opts.Seed = seed
	opts.CPUPerOp = 10 * time.Microsecond
	opts.DurableStore = true
	// Each node holds records×value×R/nodes bytes of the replicated
	// working set; the memory tier keeps a quarter of it.
	opts.StoreMemoryBudget = int64(mixedRecords*mixedValue*mixedR/mixedNodes) / mixedMemFactor
	opts.GroupCommit = true
	opts.MaxSyncDelay = 20 * time.Microsecond
	opts.PutBatchWindow = 100 * time.Microsecond
	opts.PutBatchMax = 16
	opts.CoalesceGets = true
	opts.Harmonia = true

	zipf := gen.NewZipfian(mixedRecords)
	ops := genOps(seed, mixedClients, mixedOps, 0.5, func(rng *rand.Rand) int { return zipf.Next(rng) })
	return closedLoop(r, tr, root, closedSpec{
		opts: opts, keys: keyNames("user", mixedRecords), value: mixedValue, ops: ops, tailPct: 99.9,
	})
}

// bulkReplicate is the paper's default deployment (15 nodes, R=3, 1 Gbps,
// one switch, SSD, flat store) moving 256 KiB objects: every put is a
// chunked reliable multicast of ~190 packets.
func bulkReplicate(seed int64, tr *tracer, r *rep, root int64) error {
	opts := cluster.DefaultOptions()
	opts.Clients = bulkClients
	opts.Seed = seed
	ops := genOps(seed, bulkClients, bulkOps, 0.5, func(rng *rand.Rand) int { return rng.Intn(bulkKeys) })
	return closedLoop(r, tr, root, closedSpec{
		opts: opts, keys: keyNames("bulk", bulkKeys), value: bulkValue, ops: ops, tailPct: 99, checkSize: true,
	})
}

// closedOp is one generated client call.
type closedOp struct {
	put bool
	key int32
}

// genOps draws each client's op sequence from the workload seed. The
// deployment sees only the resulting calls.
func genOps(seed int64, clients, perClient int, putFrac float64, pick func(*rand.Rand) int) [][]closedOp {
	out := make([][]closedOp, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(int64(splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(c)))))
		out[c] = make([]closedOp, perClient)
		for i := range out[c] {
			out[c][i] = closedOp{put: rng.Float64() < putFrac, key: int32(pick(rng))}
		}
	}
	return out
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func keyNames(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return keys
}

// closedSpec is a closed-loop workload: a deployment, a keyspace every
// client preloads round-robin, and each client's generated calls.
type closedSpec struct {
	opts      cluster.Options
	keys      []string
	value     int
	ops       [][]closedOp
	tailPct   float64
	checkSize bool // gets must return the size that was written
}

// closedLoop runs one rep of a closed-loop workload on a single-switch
// deployment, recording a checker history of every preload and measured
// call.
func closedLoop(r *rep, tr *tracer, root int64, spec closedSpec) error {
	var d *cluster.NICE
	_ = timed(tr, root, "setup.build", &r.buildS, func() error {
		d = cluster.NewNICE(spec.opts)
		return nil
	})
	defer d.Close()
	if err := timed(tr, root, "setup.settle", &r.settleS, d.Settle); err != nil {
		return fmt.Errorf("settle: %w", err)
	}

	hist := &checker.History{}
	if err := timed(tr, root, "setup.preload", &r.preloadS, func() error {
		var perr error
		err := drive(d, func(p *sim.Proc) {
			perr = preload(p, d, hist, spec.keys, spec.value)
			// Let the last prepares leave harmonia's dirty set before
			// the measured phase starts.
			p.Sleep(20 * time.Millisecond)
		})
		return errors.Join(err, perr)
	}); err != nil {
		return fmt.Errorf("preload: %w", err)
	}

	var getLat, putLat []sim.Time
	var retries, failed, completed int64
	var sizeErrs []string
	win, err := measure(d, r, tr, root, func(p *sim.Proc, runSpan int64) {
		g := sim.NewGroup(d.Sim)
		for ci := range spec.ops {
			ci := ci
			cl := d.Clients[ci]
			g.Add(1)
			d.Sim.Spawn(fmt.Sprintf("perfbench-client%d", ci), func(p *sim.Proc) {
				defer g.Done()
				for _, op := range spec.ops[ci] {
					key := spec.keys[op.key]
					t0 := p.Now()
					var res core.OpResult
					var err error
					if op.put {
						res, err = cl.Put(p, key, "v", spec.value)
					} else {
						res, err = cl.Get(p, key)
					}
					t1 := p.Now()
					ok := err == nil
					kind := checker.OpGet
					if op.put {
						kind = checker.OpPut
						putLat = append(putLat, t1-t0)
					} else {
						getLat = append(getLat, t1-t0)
					}
					retries += int64(res.Retries)
					if ok {
						completed++
					} else {
						failed++
					}
					if ok && !op.put && spec.checkSize && res.Found && res.Size != spec.value {
						sizeErrs = append(sizeErrs, fmt.Sprintf("get %s returned %d bytes, wrote %d", key, res.Size, spec.value))
					}
					hist.Record(checker.Event{
						Client: ci, Kind: kind, Key: key, Invoke: t0, Return: t1,
						OK: ok, Found: res.Found, Ver: res.Version,
					})
					tr.op(runSpan, ci, kind.String(), key, t0, t1, res.Retries, !ok)
				}
			})
		}
		g.Wait(p)
	})
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}

	for _, v := range hist.Check() {
		r.checkErrs = append(r.checkErrs, v.String())
	}
	if len(sizeErrs) > 0 {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf("%d gets returned the wrong size, first: %s", len(sizeErrs), sizeErrs[0]))
	}
	for _, lat := range [][]sim.Time{getLat, putLat} {
		if n := len(lat); n > 0 && beyond(n, spec.tailPct) < 10 {
			r.checkErrs = append(r.checkErrs, fmt.Sprintf("p%v of %d samples leaves fewer than 10 beyond it", spec.tailPct, n))
		}
	}

	attempted := completed + failed
	r.tailPct = spec.tailPct
	r.attempted, r.failed = attempted, failed
	m := win.layerMetrics(completed, failed, int64(len(putLat)), retries)
	m["ops_per_s"] = float64(completed) / (win.simEnd - win.simStart).Seconds()
	m["get_p50_us"] = us(percentile(getLat, 50))
	m["get_tail_us"] = us(percentile(getLat, spec.tailPct))
	m["put_p50_us"] = us(percentile(putLat, 50))
	m["put_tail_us"] = us(percentile(putLat, spec.tailPct))
	m["failed_frac"] = frac(failed, attempted)
	r.fingerprint = fingerprint{metrics: m, gets: len(getLat), puts: len(putLat), histHash: hist.Hash()}
	win.hostMetrics(r, completed)
	return nil
}

// preload writes every key once through the deployment's clients,
// round-robin and in parallel, recording each acked put in the history so
// the checker holds later reads to it.
func preload(p *sim.Proc, d *cluster.NICE, hist *checker.History, keys []string, size int) error {
	nc := len(d.Clients)
	g := sim.NewGroup(d.Sim)
	errs := make([]error, nc)
	for c := 0; c < nc; c++ {
		c := c
		g.Add(1)
		d.Sim.Spawn(fmt.Sprintf("perfbench-load%d", c), func(p *sim.Proc) {
			defer g.Done()
			for i := c; i < len(keys); i += nc {
				t0 := p.Now()
				res, err := d.Clients[c].Put(p, keys[i], "v", size)
				if err != nil {
					errs[c] = fmt.Errorf("put %s: %w", keys[i], err)
					return
				}
				hist.Record(checker.Event{
					Client: c, Kind: checker.OpPut, Key: keys[i], Invoke: t0, Return: p.Now(),
					OK: true, Ver: res.Version,
				})
			}
		})
	}
	g.Wait(p)
	return errors.Join(errs...)
}

// percentile is the nearest-rank percentile of xs (sorted in place).
func percentile(xs []sim.Time, pct float64) sim.Time {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[rank(n, pct)-1]
}

// rank is the 1-based nearest rank of the pct percentile among n
// samples, ceil(n*pct/100), in integer arithmetic so p99.9 of 24000 is
// exactly rank 23976.
func rank(n int, pct float64) int {
	milli := int64(math.Round(pct * 1000))
	r := int((int64(n)*milli + 99_999) / 100_000)
	if r < 1 {
		r = 1
	}
	return r
}

// beyond counts the samples ranked above the pct percentile of n.
func beyond(n int, pct float64) int { return n - rank(n, pct) }

func us(t sim.Time) float64 { return float64(t) / 1e3 }

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// datapaths lists every OpenFlow datapath of a deployment reachable
// through its public fields: the core (or spine) switch and each traffic
// gateway's leaf.
func datapaths(d *cluster.NICE) []*openflow.Datapath {
	dps := []*openflow.Datapath{d.Core}
	for _, g := range d.Gateways {
		dps = append(dps, g.Leaf)
	}
	return dps
}
