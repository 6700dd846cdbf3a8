package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/metrics"
	"repro/internal/openflow"
	"repro/internal/sim"
)

// counters is a snapshot of every public counter the benchmark reads.
// The measured phase reports deltas between two snapshots.
type counters struct {
	linkBytes, linkPkts int64
	dirBytes            []int64 // per link direction, in Net.Links() order
	netDrops, swDrops   int64
	of                  openflow.ControlStats
	cache               metrics.CacheCounters
	mgr                 controller.CacheManagerStats
	harm                metrics.HarmoniaCounters
	aborts, getsHeld    int64
	coalesced           int64
	batchCommits        int64
	batchedPuts         int64
	store               metrics.StorageCounters
	combinedWrites      int64
}

func snapshot(d *cluster.NICE) counters {
	var c counters
	for _, l := range d.Net.Links() {
		ab, ba := l.StatsAB(), l.StatsBA()
		c.linkBytes += ab.Bytes + ba.Bytes
		c.linkPkts += ab.Packets + ba.Packets
		c.dirBytes = append(c.dirBytes, ab.Bytes, ba.Bytes)
	}
	c.netDrops = d.Net.Drops()
	for _, sw := range d.Net.Switches() {
		c.swDrops += sw.Stats().Dropped
	}
	for _, dp := range datapaths(d) {
		st := dp.Stats()
		c.of.FlowMods += st.FlowMods
		c.of.GroupMods += st.GroupMods
		c.of.PacketIns += st.PacketIns
	}
	if d.Cache != nil {
		c.cache = d.Cache.Stats()
	}
	if d.CacheMgr != nil {
		c.mgr = d.CacheMgr.Stats()
	}
	if d.Harmonia != nil {
		c.harm = d.Harmonia.Stats()
	}
	for _, n := range d.Nodes {
		st := n.Stats()
		c.aborts += st.Aborts
		c.getsHeld += st.GetsHeld
		c.coalesced += st.GetsCoalesced
		c.batchCommits += st.BatchCommits
		c.batchedPuts += st.BatchedPuts
		c.combinedWrites += n.Store().Stats().CombinedWrites
	}
	c.store = d.StorageCounters()
	return c
}

// window is one measured phase: counter snapshots and sim time at both
// ends, plus the host-side runtime deltas.
type window struct {
	d                *cluster.NICE
	before, after    counters
	simStart, simEnd sim.Time
	nodeMsgs         int64 // controller membership messages during set-up
	allocBytes       uint64
	gcCycles         uint32
}

// measure runs body as the measured phase: host wall time around the
// simulation, counter snapshots at both ends, a CPU profile when traced,
// and the live heap after a forced collection (before the deployment is
// closed, so its retained state counts).
func measure(d *cluster.NICE, r *rep, tr *tracer, root int64, body func(p *sim.Proc, runSpan int64)) (*window, error) {
	w := &window{d: d, nodeMsgs: d.Service.Stats().NodeMsgs}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w.before = snapshot(d)
	w.simStart = d.Sim.Now()

	id := tr.begin("run", root)
	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	t0 := time.Now()
	err := drive(d, func(p *sim.Proc) { body(p, id) })
	r.runS = time.Since(t0).Seconds()
	if tr != nil {
		pprof.StopCPUProfile()
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}

	runtime.ReadMemStats(&ms1)
	w.simEnd = d.Sim.Now()
	w.after = snapshot(d)
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcCycles = ms1.NumGC - ms0.NumGC
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	r.liveHeapMB = float64(ms1.HeapAlloc) / 1e6
	if tr != nil {
		samples, perr := foldProfile(prof.Bytes())
		if perr != nil {
			return nil, fmt.Errorf("cpu profile: %w", perr)
		}
		r.profile = samples
	}
	return w, nil
}

// hostMetrics records the runtime's allocation and GC work per op.
func (w *window) hostMetrics(r *rep, ops int64) {
	r.allocBytesPerOp = float64(w.allocBytes) / float64(max64(ops, 1))
	r.gcCycles = float64(w.gcCycles)
}

// layerMetrics turns the counter deltas into the simulated per-layer
// metrics. ops is completed client calls, failed the calls that timed out
// or errored, puts the put calls attempted, retries the summed
// OpResult.Retries.
func (w *window) layerMetrics(ops, failed, puts, retries int64) map[string]float64 {
	b, a := w.before, w.after
	perOp := func(x int64) float64 { return float64(x) / float64(max64(ops, 1)) }
	perKop := func(x int64) float64 { return 1000 * perOp(x) }
	m := map[string]float64{
		"attempted":           float64(ops + failed),
		"failed":              float64(failed),
		"wire_bytes_per_op":   perOp(a.linkBytes - b.linkBytes),
		"netsim.pkts_per_op":  perOp(a.linkPkts - b.linkPkts),
		"netsim.drops":        float64(a.netDrops - b.netDrops),
		"netsim.switch_drops": float64(a.swDrops - b.swDrops),

		"openflow.flow_mods":  float64(a.of.FlowMods - b.of.FlowMods),
		"openflow.group_mods": float64(a.of.GroupMods - b.of.GroupMods),
		"openflow.packet_ins": float64(a.of.PacketIns - b.of.PacketIns),

		"switchcache.hit_rate":             frac(a.cache.Hits-b.cache.Hits, a.cache.Hits-b.cache.Hits+a.cache.Misses-b.cache.Misses),
		"switchcache.installs_per_kop":     perKop(a.cache.Installs - b.cache.Installs),
		"switchcache.evictions_per_kop":    perKop(a.cache.Evictions - b.cache.Evictions),
		"controller.cache_fetches_per_kop": perKop(a.mgr.Fetches - b.mgr.Fetches),

		"harmonia.replica_share": frac(a.harm.RoutedReplica-b.harm.RoutedReplica, a.harm.Routed-b.harm.Routed),
		"harmonia.dirty_fallback_frac": frac(a.harm.DirtyFallbacks-b.harm.DirtyFallbacks,
			a.harm.Routed-b.harm.Routed+a.harm.DirtyFallbacks-b.harm.DirtyFallbacks+a.harm.TaintFallbacks-b.harm.TaintFallbacks),
		"harmonia.overflows": float64(a.harm.Overflows - b.harm.Overflows),

		"core.retries_per_kop": perKop(retries),
		"core.mean_put_batch":  frac(a.batchedPuts-b.batchedPuts, a.batchCommits-b.batchCommits),
		"core.gets_coalesced":  float64(a.coalesced - b.coalesced),
		"core.gets_held":       float64(a.getsHeld - b.getsHeld),
		"core.aborts":          float64(a.aborts - b.aborts),

		"storage.records_per_fsync": frac(a.store.FsyncedRecords-b.store.FsyncedRecords, a.store.Fsyncs-b.store.Fsyncs),
		"storage.fsyncs_per_put":    frac(a.store.Fsyncs-b.store.Fsyncs, puts),
		"storage.mem_hit_rate":      frac(a.store.MemHits-b.store.MemHits, a.store.MemHits-b.store.MemHits+a.store.DiskReads-b.store.DiskReads),
		"storage.disk_reads":        float64(a.store.DiskReads - b.store.DiskReads),
		"storage.evictions":         float64(a.store.Evictions - b.store.Evictions),
		"storage.snapshots":         float64(a.store.Snapshots - b.store.Snapshots),
		"kvstore.combined_writes":   float64(a.combinedWrites - b.combinedWrites),

		"controller.node_msgs": float64(w.nodeMsgs),
	}

	// Busiest link direction: bytes × 8 over its bandwidth and the
	// window's sim duration.
	dur := (w.simEnd - w.simStart).Seconds()
	var util float64
	for i, l := range w.d.Net.Links() {
		bw := l.Config().BandwidthBps
		for j := 0; j < 2; j++ {
			k := 2*i + j
			if k >= len(b.dirBytes) || bw <= 0 || dur <= 0 {
				continue
			}
			u := float64(a.dirBytes[k]-b.dirBytes[k]) * 8 / bw / dur
			if u > util {
				util = u
			}
		}
	}
	m["netsim.max_link_util"] = util
	return m
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
