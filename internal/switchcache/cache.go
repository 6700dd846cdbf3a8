// Package switchcache implements a NetCache-style in-switch hot-key
// cache on top of the openflow datapath: a bounded key→value table
// resident in the switch pipeline that answers matching get requests
// directly on the ingress port — zero server hops — while punting a
// sample of missed keys toward a controller-side hot-key detector that
// decides what to install and evict.
//
// The paper's in-network load balancing (§4.5) only spreads a skewed get
// stream across the R replicas of a partition, so a single hot key is
// still bounded by R servers; caching the item in the fabric decouples
// hot-key throughput from storage-node count (NetCache, TurboKV). The
// division of labour mirrors those systems: the data plane does lookup,
// hit counting and write-through invalidation at line rate, the
// controller owns the insertion/eviction policy.
//
// The package is protocol-agnostic: a Parser supplied by the storage
// layer recognizes get requests inside packets and synthesizes replies,
// so switchcache depends only on netsim/openflow and can front any
// key-value wire format.
package switchcache

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sim"
)

// Reply is the Parser's recipe for answering a get from the cache: the
// payload object, its wire size in bytes (excluding the UDP header), and
// the requester's reply port.
type Reply struct {
	Payload any
	Size    int
	DstPort uint16
}

// Parser adapts the storage system's wire format to the cache. Both
// methods run on the switch's forwarding path.
type Parser interface {
	// ParseGet reports whether pkt is a cacheable read request and for
	// which key.
	ParseGet(pkt *netsim.Packet) (key string, ok bool)
	// MakeReply builds the reply answering pkt (a packet ParseGet
	// accepted) with the cached value and its committed version.
	MakeReply(pkt *netsim.Packet, value any, size int, ver uint64) Reply
}

// Config parameterizes one switch cache.
type Config struct {
	// Capacity bounds the table; switch memory is the scarce resource
	// (NetCache budgets tens of thousands of entries; we default far
	// smaller so eviction pressure is visible at simulation scale).
	Capacity int
	// MaxValueSize rejects objects too large for a single synthesized
	// reply frame; bigger objects bypass the cache entirely.
	MaxValueSize int
	// SampleEvery mirrors every Nth missed get key to the detector
	// (1 = every miss). 0 disables sampling.
	SampleEvery int
	// CtrlDelay is the switch→controller latency charged on sampled
	// keys, matching the datapath's control-channel latency.
	CtrlDelay sim.Time
}

// DefaultConfig sizes the cache for the simulated deployments.
func DefaultConfig(ctrlDelay sim.Time) Config {
	return Config{
		Capacity:     64,
		MaxValueSize: 1200,
		SampleEvery:  1,
		CtrlDelay:    ctrlDelay,
	}
}

// entry is one cached object.
type entry struct {
	value any
	size  int
	ver   uint64 // version of the committed put that produced the value
	hits  int64
}

// invalCap bounds the invalidation-version memory: versions are only
// needed to defeat the install/invalidate race (a fetch in flight while a
// put commits), whose window is one control RTT, so dropping the oldest
// record beyond the cap is safe in practice.
const invalCap = 16384

// Cache is the switch-resident table. It wraps the datapath's pipeline:
// cacheable gets that hit are answered on the ingress port, everything
// else falls through to the OpenFlow flow tables untouched.
//
// Mutating operations come in two flavours mirroring who performs them in
// hardware: Install/Evict are controller→switch messages and take effect
// after the control-channel delay; Invalidate/Update are data-plane
// write-through effects of put traffic and apply immediately.
type Cache struct {
	dp      *openflow.Datapath
	next    netsim.Pipeline
	parser  Parser
	cfg     Config
	entries map[string]*entry
	inval   map[string]uint64 // key -> newest invalidated/committed version
	// invalLog lists inval's keys in first-recorded order: the FIFO that
	// picks which record to drop at invalCap, independent of map order.
	invalLog []string
	sampler  func(key string)
	stats    metrics.CacheCounters
	misses   int64 // sampling phase counter

	// extraCtrl is injected control-path latency (gray management network);
	// it stretches installs, evictions and miss sampling but never the
	// data-plane write-through, which rides the put traffic itself.
	extraCtrl sim.Time
}

// Attach interposes a cache in front of dp's forwarding pipeline and
// returns it. Call before traffic starts.
func Attach(dp *openflow.Datapath, parser Parser, cfg Config) *Cache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	c := &Cache{
		dp:      dp,
		next:    dp,
		parser:  parser,
		cfg:     cfg,
		entries: make(map[string]*entry),
		inval:   make(map[string]uint64),
	}
	dp.Switch().SetPipeline(c)
	return c
}

// SetSampler registers the detector callback receiving sampled miss keys
// (already delayed by the control latency).
func (c *Cache) SetSampler(fn func(key string)) { c.sampler = fn }

// SetNext rechains the cache's fall-through target, letting further
// pipeline stages (e.g. the harmonia dirty-set) interpose between the
// cache and the flow tables: switch → cache → stage → datapath.
func (c *Cache) SetNext(next netsim.Pipeline) { c.next = next }

// Datapath returns the wrapped datapath.
func (c *Cache) Datapath() *openflow.Datapath { return c.dp }

// Config returns the cache's effective configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats snapshots the counters.
func (c *Cache) Stats() metrics.CacheCounters {
	st := c.stats
	st.Occupancy = len(c.entries)
	st.Capacity = c.cfg.Capacity
	return st
}

// Len returns the resident entry count.
func (c *Cache) Len() int { return len(c.entries) }

// Contains reports whether key is resident.
func (c *Cache) Contains(key string) bool {
	_, ok := c.entries[key]
	return ok
}

// Keys lists the resident keys in sorted order. The ctrlchain takeover
// reconcile evicts in this order and must behave identically across
// replayed runs, so the map's iteration order must never leak out.
func (c *Cache) Keys() []string {
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MinBy returns the resident key with the lowest score, ties going to the
// smaller key, and its score; ("", ^uint32(0)) when nothing is resident.
// The total order makes the answer independent of map iteration order
// without sorting the table.
func (c *Cache) MinBy(score func(key string) uint32) (key string, min uint32) {
	key, min = "", ^uint32(0)
	found := false
	for k := range c.entries {
		if s := score(k); !found || s < min || (s == min && k < key) {
			key, min, found = k, s, true
		}
	}
	return key, min
}

// HitsOf returns the per-entry hit counter (0 when not resident).
func (c *Cache) HitsOf(key string) int64 {
	if e, ok := c.entries[key]; ok {
		return e.hits
	}
	return 0
}

// Process implements netsim.Pipeline: answer cache hits at the switch,
// sample misses toward the detector, delegate everything else.
func (c *Cache) Process(sw *netsim.Switch, pkt *netsim.Packet, inPort int) {
	key, ok := c.parser.ParseGet(pkt)
	if !ok {
		c.next.Process(sw, pkt, inPort)
		return
	}
	e, hit := c.entries[key]
	if !hit {
		c.stats.Misses++
		c.misses++
		if c.sampler != nil && c.cfg.SampleEvery > 0 && c.misses%int64(c.cfg.SampleEvery) == 0 {
			k := key
			sw.Sim().After(c.ctrlDelay(), func() { c.sampler(k) })
		}
		c.next.Process(sw, pkt, inPort)
		return
	}
	c.stats.Hits++
	e.hits++
	rep := c.parser.MakeReply(pkt, e.value, e.size, e.ver)
	net := sw.Network()
	out := net.NewPacket()
	out.SrcIP = pkt.DstIP // the vnode address the client asked
	out.SrcMAC = pkt.DstMAC
	out.DstIP = pkt.SrcIP
	out.DstMAC = pkt.SrcMAC
	out.Proto = netsim.ProtoUDP
	out.SrcPort = pkt.DstPort
	out.DstPort = rep.DstPort
	out.Size = rep.Size + netsim.UDPHeaderSize
	out.Payload = rep.Payload
	out.TTL = netsim.DefaultTTL
	net.RecyclePacket(pkt) // request consumed at the switch
	sw.Output(inPort, out)
}

// Install is the controller's entry insertion: applied after the control
// delay, rejected there if the table is full, the object oversize, or the
// fetched version already superseded by a write-through (the fetch raced
// a commit).
func (c *Cache) Install(key string, value any, size int, ver uint64) {
	c.InstallAs(0, key, value, size, ver)
}

// InstallAs is Install carrying the issuing controller's writer
// generation: the fence is checked when the command *applies* (after
// the control delay), so an install that was already in flight when a
// standby took over and raised the switch writer fence is rejected at
// the datapath — the "controller killed mid-cache-install" case.
// Generation 0 is the legacy unfenced writer.
func (c *Cache) InstallAs(gen uint64, key string, value any, size int, ver uint64) {
	c.dp.Switch().Sim().After(c.ctrlDelay(), func() {
		if !c.dp.WriterAllowed(gen) {
			c.stats.Rejected++
			return
		}
		if size > c.cfg.MaxValueSize && c.cfg.MaxValueSize > 0 {
			c.stats.Rejected++
			return
		}
		if ver < c.inval[key] {
			c.stats.Rejected++ // stale: a put committed past this value
			return
		}
		if e, ok := c.entries[key]; ok {
			if ver >= e.ver {
				e.value, e.size, e.ver = value, size, ver
			}
			return
		}
		if len(c.entries) >= c.cfg.Capacity {
			c.stats.Rejected++
			return
		}
		c.entries[key] = &entry{value: value, size: size, ver: ver}
		c.stats.Installs++
	})
}

// SetExtraCtrlDelay injects (or, with 0, clears) additional control-path
// latency for fault experiments.
func (c *Cache) SetExtraCtrlDelay(d sim.Time) { c.extraCtrl = d }

// ctrlDelay is the effective control-channel latency.
func (c *Cache) ctrlDelay() sim.Time { return c.cfg.CtrlDelay + c.extraCtrl }

// Evict is the controller's entry removal, applied after the control
// delay.
func (c *Cache) Evict(key string) {
	c.EvictAs(0, key)
}

// EvictAs is Evict with the writer-generation fence of InstallAs.
func (c *Cache) EvictAs(gen uint64, key string) {
	c.dp.Switch().Sim().After(c.ctrlDelay(), func() {
		if !c.dp.WriterAllowed(gen) {
			return
		}
		if _, ok := c.entries[key]; ok {
			delete(c.entries, key)
			c.stats.Evictions++
		}
	})
}

// Invalidate is the put path's write-through: the committing put's
// traffic traverses this switch, so the entry is dropped synchronously —
// strictly before the commit acknowledgment can reach the client. ver is
// the committed version; it also fences any in-flight install of an
// older value.
func (c *Cache) Invalidate(key string, ver uint64) {
	c.recordVer(key, ver)
	if _, ok := c.entries[key]; ok {
		delete(c.entries, key)
		c.stats.Invalidations++
	}
}

// Update is the write-update variant of the write-through: a resident
// entry is refreshed in place with the committed value instead of being
// dropped, keeping the key servable at the switch across writes. Returns
// whether an entry was refreshed.
func (c *Cache) Update(key string, value any, size int, ver uint64) bool {
	if size > c.cfg.MaxValueSize && c.cfg.MaxValueSize > 0 {
		c.Invalidate(key, ver) // no longer cacheable at this size
		return false
	}
	c.recordVer(key, ver)
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	if ver >= e.ver {
		e.value, e.size, e.ver = value, size, ver
		c.stats.Updates++
	}
	return true
}

// recordVer remembers the newest committed version per key so stale
// installs lose the race. The map is bounded FIFO, like the node's
// commit-dedup record: at invalCap the key recorded first is dropped.
func (c *Cache) recordVer(key string, ver uint64) {
	old, known := c.inval[key]
	if ver <= old {
		return
	}
	if !known {
		if len(c.invalLog) >= invalCap {
			delete(c.inval, c.invalLog[0])
			c.invalLog = c.invalLog[1:]
		}
		c.invalLog = append(c.invalLog, key)
	}
	c.inval[key] = ver
}
