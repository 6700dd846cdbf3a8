package controller

import (
	"time"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/switchcache"
)

// CacheManagerConfig parameterizes the hot-key detector.
type CacheManagerConfig struct {
	// HotThreshold is the sketch estimate at which a sampled key is
	// considered hot and fetched for installation.
	HotThreshold uint32
	// SketchRows/SketchCols size the count-min sketch.
	SketchRows, SketchCols int
	// DecayEvery is the sketch halving period (the detector's sliding
	// window); 0 disables decay.
	DecayEvery sim.Time
	// FetchTimeout clears a fetch that never came back (primary failed),
	// letting the key be retried.
	FetchTimeout sim.Time
}

// DefaultCacheManagerConfig tunes the detector for the simulated runs.
func DefaultCacheManagerConfig() CacheManagerConfig {
	return CacheManagerConfig{
		HotThreshold: 8,
		SketchRows:   4,
		SketchCols:   1024,
		DecayEvery:   500 * time.Millisecond,
		FetchTimeout: 100 * time.Millisecond,
	}
}

// CacheManagerStats counts detector activity.
type CacheManagerStats struct {
	Sampled  int64 // miss keys received from the switch
	Fetches  int64 // object fetches issued to primaries
	Installs int64 // install commands pushed to the switch
	Evicts   int64 // eviction commands pushed to make room
}

// CacheManager is the controller half of the in-switch cache (NetCache's
// cache-management module): it watches the sampled miss stream the switch
// mirrors up, ranks keys with a decayed count-min sketch, fetches objects
// that cross the hot threshold from their partition primary, and installs
// them — evicting the coldest resident entry when the table is full.
// The data plane never waits on it: everything here is off the get path.
type CacheManager struct {
	svc      *Service
	cache    *switchcache.Cache
	cfg      CacheManagerConfig
	space    ring.Space
	sketch   *switchcache.Sketch
	inflight map[string]bool // fetches awaiting a reply
	stats    CacheManagerStats
}

// EnableCache attaches a hot-key detector managing c to the metadata
// service. Call after Start; the switch's miss sampler is pointed at the
// detector and the decay loop is spawned here.
func (svc *Service) EnableCache(c *switchcache.Cache, cfg CacheManagerConfig) *CacheManager {
	if cfg.HotThreshold == 0 {
		cfg.HotThreshold = 8
	}
	if cfg.SketchRows <= 0 {
		cfg.SketchRows = 4
	}
	if cfg.SketchCols <= 0 {
		cfg.SketchCols = 1024
	}
	cm := &CacheManager{
		svc:      svc,
		cache:    c,
		cfg:      cfg,
		space:    ring.NewSpace(svc.cfg.Placement.N),
		sketch:   switchcache.NewSketch(cfg.SketchRows, cfg.SketchCols),
		inflight: make(map[string]bool),
	}
	svc.cacheMgr = cm
	c.SetSampler(cm.OnSample)
	// A chain-backed takeover reconciles the switch table against the
	// replicated install records: an entry the chain does not list as
	// resident was evicted (or never recorded) under the old generation,
	// and the new controller cannot vouch for its version — evict it.
	// Keys the chain lists but the switch lacks need nothing; the next
	// misses re-install them through the normal path.
	if svc.restoredCache != nil {
		resident := make(map[string]bool, len(svc.restoredCache))
		for _, ce := range svc.restoredCache {
			if ce.Resident {
				resident[ce.Key] = true
			}
		}
		for _, key := range c.Keys() { // Keys() is sorted: deterministic evict order
			if !resident[key] {
				svc.store.WriteCache(svc.gen, key, 0, false)
				c.EvictAs(svc.gen, key)
				cm.stats.Evicts++
			}
		}
	}
	if cfg.DecayEvery > 0 {
		svc.s.Spawn("cache-decay", func(p *sim.Proc) {
			for {
				p.Sleep(cfg.DecayEvery)
				cm.sketch.Halve()
			}
		})
	}
	return cm
}

// Stats returns detector counters.
func (cm *CacheManager) Stats() CacheManagerStats { return cm.stats }

// Sketch exposes the frequency estimator (tests and the eviction policy
// read it).
func (cm *CacheManager) Sketch() *switchcache.Sketch { return cm.sketch }

// OnSample receives one sampled miss key from the switch (already delayed
// by the control channel) and decides whether to start an install.
func (cm *CacheManager) OnSample(key string) {
	cm.stats.Sampled++
	est := cm.sketch.Add(key)
	if est < cm.cfg.HotThreshold || cm.cache.Contains(key) || cm.inflight[key] {
		return
	}
	cm.fetch(key)
}

// fetch asks the key's partition primary for the committed object.
func (cm *CacheManager) fetch(key string) {
	part := cm.space.PartitionOf(key)
	if part < 0 || part >= len(cm.svc.views) {
		return
	}
	v := cm.svc.views[part]
	if v == nil || len(v.Replicas) == 0 {
		return
	}
	cm.inflight[key] = true
	cm.stats.Fetches++
	cm.svc.sendToNode(v.Primary(), &CacheFetchRequest{Key: key, MaxSize: cm.maxSize()}, ctrlMsgSize)
	if cm.cfg.FetchTimeout > 0 {
		k := key
		cm.svc.s.After(cm.cfg.FetchTimeout, func() { delete(cm.inflight, k) })
	}
}

func (cm *CacheManager) maxSize() int { return cm.cache.Config().MaxValueSize }

// onFetchReply completes an install: make room if the table is full
// (evicting the resident key the sketch ranks coldest, and only when the
// new key is hotter), then push the entry to the switch. The switch-side
// version fence rejects the install if a put committed past the fetched
// copy while it was in flight.
func (cm *CacheManager) onFetchReply(m *CacheFetchReply) {
	delete(cm.inflight, m.Key)
	if !m.Found || cm.cache.Contains(m.Key) {
		return
	}
	// Write the install intent through to the state store first: a
	// rejection means a newer controller generation owns cache
	// management and this manager belongs to a fenced zombie.
	if !cm.svc.store.WriteCache(cm.svc.gen, m.Key, m.Ver, true) {
		cm.svc.stats.FencedWrites++
		return
	}
	if cm.cache.Len() >= cm.cache.Config().Capacity {
		victim, cold := cm.cache.MinBy(cm.sketch.Estimate)
		if victim == "" || cold >= cm.sketch.Estimate(m.Key) {
			return // nothing resident is colder than the candidate
		}
		cm.svc.store.WriteCache(cm.svc.gen, victim, 0, false)
		cm.cache.EvictAs(cm.svc.gen, victim)
		cm.stats.Evicts++
	}
	cm.cache.InstallAs(cm.svc.gen, m.Key, m.Value, m.Size, m.Ver)
	cm.stats.Installs++
}
