package switchcache

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sim"
)

// stubParser treats any UDP datagram to port 7000 whose payload is a
// string as a get for that key.
type stubParser struct{}

func (stubParser) ParseGet(pkt *netsim.Packet) (string, bool) {
	if pkt.Proto != netsim.ProtoUDP || pkt.DstPort != 7000 {
		return "", false
	}
	k, ok := pkt.Payload.(string)
	return k, ok
}

func (stubParser) MakeReply(pkt *netsim.Packet, value any, size int, ver uint64) Reply {
	return Reply{Payload: value, Size: size, DstPort: 8000}
}

const testCtrlDelay = 100 * time.Microsecond

// rig is a one-switch, one-client harness for pipeline tests.
type rig struct {
	s      *sim.Simulator
	net    *netsim.Network
	sw     *netsim.Switch
	client *netsim.Host
	cache  *Cache
	got    []*netsim.Packet
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	s := sim.New(1)
	nw := netsim.NewNetwork(s)
	sw := nw.NewSwitch("sw", 2, time.Microsecond)
	client := nw.NewHost("client", netsim.MustParseIP("192.168.0.1"))
	nw.Connect(client.Port(), sw.Port(0), netsim.Gbps(1, time.Microsecond))
	dp := openflow.Attach(sw, testCtrlDelay)
	r := &rig{s: s, net: nw, sw: sw, client: client}
	r.cache = Attach(dp, stubParser{}, cfg)
	client.SetHandler(func(pkt *netsim.Packet) { r.got = append(r.got, pkt) })
	return r
}

// sendGet injects a client get for key into the switch.
func (r *rig) sendGet(key string) {
	pkt := r.net.NewPacket()
	pkt.SrcIP = r.client.IP()
	pkt.SrcMAC = r.client.MAC()
	pkt.DstIP = netsim.MustParseIP("10.10.0.1") // vnode-ish address
	pkt.Proto = netsim.ProtoUDP
	pkt.SrcPort = 5000
	pkt.DstPort = 7000
	pkt.Size = 64
	pkt.Payload = key
	r.client.Send(pkt)
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// install synchronously places an entry (running the control delay out).
func (r *rig) install(t *testing.T, key string, value any, size int, ver uint64) {
	t.Helper()
	r.cache.Install(key, value, size, ver)
	r.run(t)
}

func TestCacheHitSynthesizesReply(t *testing.T) {
	r := newRig(t, DefaultConfig(testCtrlDelay))
	r.install(t, "hot", "cached-value", 200, 1)
	if !r.cache.Contains("hot") {
		t.Fatal("install did not land")
	}

	r.sendGet("hot")
	r.run(t)

	if len(r.got) != 1 {
		t.Fatalf("client received %d packets, want 1", len(r.got))
	}
	rep := r.got[0]
	if rep.Payload != "cached-value" || rep.DstPort != 8000 || rep.Proto != netsim.ProtoUDP {
		t.Fatalf("bad reply: payload=%v dstport=%d proto=%v", rep.Payload, rep.DstPort, rep.Proto)
	}
	if rep.DstIP != r.client.IP() {
		t.Fatalf("reply addressed to %v, want client %v", rep.DstIP, r.client.IP())
	}
	st := r.cache.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 hit", st)
	}
	if r.cache.HitsOf("hot") != 1 {
		t.Fatalf("per-entry hits = %d", r.cache.HitsOf("hot"))
	}
}

func TestCacheMissSamplesKey(t *testing.T) {
	cfg := DefaultConfig(testCtrlDelay)
	cfg.SampleEvery = 2
	r := newRig(t, cfg)
	var sampled []string
	r.cache.SetSampler(func(k string) { sampled = append(sampled, k) })

	for i := 0; i < 4; i++ {
		r.sendGet("cold")
	}
	r.run(t)

	// Every 2nd miss mirrors to the detector.
	if len(sampled) != 2 {
		t.Fatalf("sampled %d keys, want 2", len(sampled))
	}
	st := r.cache.Stats()
	if st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 4 misses", st)
	}
	// No reply was synthesized for misses.
	if len(r.got) != 0 {
		t.Fatalf("client received %d packets on misses", len(r.got))
	}
}

func TestCacheInstallDelayedByControlChannel(t *testing.T) {
	r := newRig(t, DefaultConfig(testCtrlDelay))
	r.cache.Install("k", "v", 10, 1)
	if r.cache.Contains("k") {
		t.Fatal("install visible before the control delay")
	}
	r.run(t)
	if !r.cache.Contains("k") {
		t.Fatal("install never landed")
	}
	r.cache.Evict("k")
	if !r.cache.Contains("k") {
		t.Fatal("evict visible before the control delay")
	}
	r.run(t)
	if r.cache.Contains("k") {
		t.Fatal("evict never landed")
	}
	st := r.cache.Stats()
	if st.Installs != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheInvalidateIsSynchronousAndFencesInstalls(t *testing.T) {
	r := newRig(t, DefaultConfig(testCtrlDelay))
	r.install(t, "k", "v1", 10, 5)

	// A put committing version 6 invalidates with no delay.
	r.cache.Invalidate("k", 6)
	if r.cache.Contains("k") {
		t.Fatal("invalidate must apply synchronously")
	}

	// An install of the pre-commit copy (fetched before the put) must
	// lose the race even though it applies later.
	r.cache.Install("k", "v1", 10, 5)
	r.run(t)
	if r.cache.Contains("k") {
		t.Fatal("stale install (ver 5 < invalidated 6) was accepted")
	}
	// The committed version itself is installable.
	r.install(t, "k", "v2", 10, 6)
	if !r.cache.Contains("k") {
		t.Fatal("install at the invalidation version must be accepted")
	}
	st := r.cache.Stats()
	if st.Invalidations != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheInvalFenceEvictsOldestFirst overfills the stale-install fence
// and checks that the record dropped at the cap is the one recorded
// first, not one chosen by map order: bumping a key's version does not
// renew its place.
func TestCacheInvalFenceEvictsOldestFirst(t *testing.T) {
	r := newRig(t, DefaultConfig(testCtrlDelay))
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	for i := 0; i < invalCap; i++ {
		r.cache.Invalidate(key(i), 1)
	}
	r.cache.Invalidate(key(0), 2) // newer version, same FIFO place
	r.cache.Invalidate("over1", 1)
	if _, ok := r.cache.inval[key(0)]; ok || r.cache.inval[key(1)] != 1 {
		t.Fatalf("first overflow: %s kept=%v, %s ver=%d; want %s dropped",
			key(0), ok, key(1), r.cache.inval[key(1)], key(0))
	}
	r.cache.Invalidate("over2", 1)
	if _, ok := r.cache.inval[key(1)]; ok || r.cache.inval[key(2)] != 1 {
		t.Fatalf("second overflow dropped the wrong record")
	}
	if len(r.cache.inval) != invalCap || r.cache.inval["over1"] != 1 || r.cache.inval["over2"] != 1 {
		t.Fatalf("fence holds %d records, want %d including both newcomers", len(r.cache.inval), invalCap)
	}
	// The dropped key's fence is gone: an old install now applies.
	r.install(t, key(0), "v", 10, 1)
	if !r.cache.Contains(key(0)) {
		t.Fatal("install of a key whose fence record was dropped was rejected")
	}
}

// TestCacheMinBy checks the order-independent minimum the eviction policy
// uses: lowest score wins, equal scores go to the smaller key.
func TestCacheMinBy(t *testing.T) {
	r := newRig(t, DefaultConfig(testCtrlDelay))
	if k, s := r.cache.MinBy(func(string) uint32 { return 0 }); k != "" || s != ^uint32(0) {
		t.Fatalf("empty cache: MinBy = %q, %d", k, s)
	}
	score := map[string]uint32{"a": 7, "b": 3, "c": 3, "d": 9}
	for k := range score {
		r.cache.Install(k, "v", 10, 1)
	}
	r.run(t)
	if k, s := r.cache.MinBy(func(k string) uint32 { return score[k] }); k != "b" || s != 3 {
		t.Fatalf("MinBy = %q, %d; want b, 3", k, s)
	}
}

func TestCacheUpdateRefreshesInPlace(t *testing.T) {
	r := newRig(t, DefaultConfig(testCtrlDelay))
	r.install(t, "k", "v1", 10, 1)

	if !r.cache.Update("k", "v2", 12, 2) {
		t.Fatal("update on a resident entry must report true")
	}
	r.sendGet("k")
	r.run(t)
	if len(r.got) != 1 || r.got[0].Payload != "v2" {
		t.Fatalf("hit after update returned %v, want v2", r.got)
	}

	// Older versions must not roll the entry back.
	r.cache.Update("k", "v0", 10, 1)
	r.sendGet("k")
	r.run(t)
	if r.got[1].Payload != "v2" {
		t.Fatalf("stale update rolled entry back to %v", r.got[1].Payload)
	}

	// Updates on non-resident keys only record the version.
	if r.cache.Update("other", "x", 10, 9) {
		t.Fatal("update on non-resident key must report false")
	}
	r.cache.Install("other", "x", 10, 8)
	r.run(t)
	if r.cache.Contains("other") {
		t.Fatal("install older than an updated version was accepted")
	}
}

func TestCacheCapacityAndOversize(t *testing.T) {
	cfg := DefaultConfig(testCtrlDelay)
	cfg.Capacity = 2
	cfg.MaxValueSize = 100
	r := newRig(t, cfg)

	r.install(t, "a", "v", 10, 1)
	r.install(t, "b", "v", 10, 1)
	r.install(t, "c", "v", 10, 1) // over capacity
	if r.cache.Len() != 2 || r.cache.Contains("c") {
		t.Fatalf("capacity bound violated: len=%d", r.cache.Len())
	}
	r.install(t, "big", "v", 101, 1) // over MaxValueSize
	if r.cache.Contains("big") {
		t.Fatal("oversize object cached")
	}
	if st := r.cache.Stats(); st.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", st.Rejected)
	}
	if st := r.cache.Stats(); st.Occupancy != 2 || st.Capacity != 2 {
		t.Fatalf("occupancy snapshot = %+v", st)
	}

	// Oversize write-update degrades to an invalidation.
	if r.cache.Update("a", "v", 500, 2) {
		t.Fatal("oversize update must not refresh")
	}
	if r.cache.Contains("a") {
		t.Fatal("oversize update left a stale entry resident")
	}
}

func TestCacheNonGetTrafficFallsThrough(t *testing.T) {
	r := newRig(t, DefaultConfig(testCtrlDelay))
	pkt := r.net.NewPacket()
	pkt.SrcIP = r.client.IP()
	pkt.SrcMAC = r.client.MAC()
	pkt.DstIP = netsim.MustParseIP("10.0.0.1")
	pkt.Proto = netsim.ProtoTCP
	pkt.DstPort = 7000
	pkt.Size = 64
	r.client.Send(pkt)
	r.run(t)
	if st := r.cache.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("non-get traffic touched the cache: %+v", st)
	}
}

func TestSketchEstimateAndHalve(t *testing.T) {
	s := NewSketch(4, 64)
	if s.Estimate("x") != 0 {
		t.Fatal("fresh sketch must estimate 0")
	}
	for i := 0; i < 10; i++ {
		s.Add("x")
	}
	s.Add("y")
	if got := s.Estimate("x"); got != 10 {
		t.Fatalf("estimate(x) = %d, want 10", got)
	}
	if got := s.Estimate("y"); got < 1 {
		t.Fatalf("estimate(y) = %d, want >= 1", got)
	}
	s.Halve()
	if got := s.Estimate("x"); got != 5 {
		t.Fatalf("after halve estimate(x) = %d, want 5", got)
	}
	s.Reset()
	if s.Estimate("x") != 0 {
		t.Fatal("reset sketch must estimate 0")
	}
}

func TestSketchConservativeUpdate(t *testing.T) {
	// Conservative update keeps a never-seen key's estimate low even when
	// the sketch is under heavy load from other keys.
	s := NewSketch(4, 32)
	for i := 0; i < 1000; i++ {
		s.Add("hot")
	}
	if got := s.Estimate("hot"); got != 1000 {
		t.Fatalf("estimate(hot) = %d, want 1000", got)
	}
	// The single hot key collides with at most one counter per row; a
	// fresh key cannot inherit the full count in all rows.
	fresh := s.Estimate("never-seen-key-1")
	if fresh != 0 && fresh != 1000 {
		t.Logf("fresh estimate = %d (collision artifact, acceptable)", fresh)
	}
}

func TestSketchDeterminism(t *testing.T) {
	a, b := NewSketch(4, 128), NewSketch(4, 128)
	keys := []string{"k1", "k2", "k3", "k1", "k1", "k9"}
	for _, k := range keys {
		a.Add(k)
		b.Add(k)
	}
	for _, k := range append(keys, "unseen") {
		if a.Estimate(k) != b.Estimate(k) {
			t.Fatalf("sketches diverged on %q", k)
		}
	}
}
