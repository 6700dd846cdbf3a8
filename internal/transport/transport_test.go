package transport

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(n) * time.Millisecond }
func us(n int) sim.Time { return sim.Time(n) * time.Microsecond }

// hub is a test fabric: a single switch statically routing by IP, with
// optional multicast groups fanning out to subscribed hosts.
type hub struct {
	s      *sim.Simulator
	net    *netsim.Network
	sw     *netsim.Switch
	ports  map[netsim.IP]int
	groups map[netsim.IP][]int
	stacks []*Stack
}

func newHub(t *testing.T, n int, cfg netsim.LinkConfig) *hub {
	t.Helper()
	s := sim.New(1)
	nw := netsim.NewNetwork(s)
	h := &hub{
		s:      s,
		net:    nw,
		sw:     nw.NewSwitch("hub", n, us(2)),
		ports:  make(map[netsim.IP]int),
		groups: make(map[netsim.IP][]int),
	}
	for i := 0; i < n; i++ {
		host := nw.NewHost("h", netsim.IPv4(10, 0, 0, byte(i+1)))
		nw.Connect(host.Port(), h.sw.Port(i), cfg)
		h.ports[host.IP()] = i
		h.stacks = append(h.stacks, NewStack(host))
	}
	h.sw.SetPipeline(netsim.PipelineFunc(func(sw *netsim.Switch, pkt *netsim.Packet, inPort int) {
		if outs, ok := h.groups[pkt.DstIP]; ok {
			for _, o := range outs {
				c := pkt.Clone()
				c.DstMAC = netsim.BroadcastMAC
				sw.Output(o, c)
			}
			return
		}
		if o, ok := h.ports[pkt.DstIP]; ok {
			c := pkt.Clone()
			c.DstMAC = h.host(o).MAC()
			sw.Output(o, c)
			return
		}
		sw.Drop(pkt)
	}))
	return h
}

func (h *hub) host(i int) *netsim.Host { return h.net.Hosts()[i] }

func (h *hub) run(t *testing.T) {
	t.Helper()
	if err := h.s.Run(); err != nil {
		t.Fatal(err)
	}
	h.s.Shutdown()
}

func TestUDPRoundTrip(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, us(10)))
	a, b := h.stacks[0], h.stacks[1]
	srv := b.MustBindUDP(7000)
	done := false
	h.s.Spawn("server", func(p *sim.Proc) {
		d, ok := srv.Recv(p)
		if !ok {
			t.Error("recv failed")
			return
		}
		if d.Data.(string) != "ping" || d.From != a.IP() {
			t.Errorf("got %v from %v", d.Data, d.From)
		}
		// Reply to the sender's ephemeral port.
		reply := b.MustBindUDP(0)
		reply.SendTo(d.From, d.FromPort, "pong", 4)
	})
	h.s.Spawn("client", func(p *sim.Proc) {
		sock := a.MustBindUDP(0)
		sock.SendTo(b.IP(), 7000, "ping", 4)
		d, ok := sock.RecvTimeout(p, ms(100))
		if !ok || d.Data.(string) != "pong" {
			t.Errorf("no pong: %v %v", d, ok)
			return
		}
		done = true
	})
	h.run(t)
	if !done {
		t.Fatal("round trip incomplete")
	}
}

func TestUDPOversizePanics(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, 0))
	sock := h.stacks[0].MustBindUDP(0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for datagram above MTU")
		}
	}()
	sock.SendTo(h.stacks[1].IP(), 1, nil, MTU+1)
}

func TestUDPPortConflict(t *testing.T) {
	h := newHub(t, 1, netsim.Gbps(1, 0))
	h.stacks[0].MustBindUDP(9)
	if _, err := h.stacks[0].BindUDP(9); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
}

func TestStreamSmallMessage(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, us(10)))
	a, b := h.stacks[0], h.stacks[1]
	ln := b.MustListen(5000)
	var got Message
	h.s.Spawn("server", func(p *sim.Proc) {
		c, ok := ln.Accept(p)
		if !ok {
			return
		}
		got, _ = c.Recv(p)
		if err := c.Send(p, "ok", 2); err != nil {
			t.Error(err)
		}
	})
	var reply Message
	h.s.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, b.IP(), 5000)
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.Send(p, "hello", 5); err != nil {
			t.Error(err)
			return
		}
		reply, _ = c.Recv(p)
		c.Close()
	})
	h.run(t)
	if got.Data != "hello" || got.Size != 5 {
		t.Fatalf("server got %+v", got)
	}
	if reply.Data != "ok" {
		t.Fatalf("client got %+v", reply)
	}
}

func TestStreamLargeMessageTiming(t *testing.T) {
	// 1 MB over two 1 Gbps hops: at least the 8 ms serialization, and not
	// wildly more (the window comfortably covers the tiny BDP).
	h := newHub(t, 2, netsim.Gbps(1, us(20)))
	a, b := h.stacks[0], h.stacks[1]
	ln := b.MustListen(5000)
	const size = 1 << 20
	var took sim.Time
	h.s.Spawn("server", func(p *sim.Proc) {
		c, ok := ln.Accept(p)
		if !ok {
			return
		}
		m, _ := c.Recv(p)
		if m.Size != size {
			t.Errorf("size = %d", m.Size)
		}
	})
	h.s.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, b.IP(), 5000)
		if err != nil {
			t.Error(err)
			return
		}
		start := p.Now()
		if err := c.Send(p, "blob", size); err != nil {
			t.Error(err)
		}
		took = p.Now() - start
	})
	h.run(t)
	if took < ms(8) || took > ms(40) {
		t.Fatalf("1MB transfer took %v, want ~8-40ms", took)
	}
}

func TestStreamBidirectionalSequentialMessages(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, us(5)))
	a, b := h.stacks[0], h.stacks[1]
	ln := b.MustListen(5000)
	const rounds = 5
	serverSum, clientSum := 0, 0
	h.s.Spawn("server", func(p *sim.Proc) {
		c, _ := ln.Accept(p)
		for i := 0; i < rounds; i++ {
			m, ok := c.Recv(p)
			if !ok {
				return
			}
			serverSum += m.Data.(int)
			c.Send(p, m.Data.(int)*10, 100)
		}
	})
	h.s.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, b.IP(), 5000)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 1; i <= rounds; i++ {
			c.Send(p, i, 5000) // multi-segment each way
			m, ok := c.Recv(p)
			if !ok {
				return
			}
			clientSum += m.Data.(int)
		}
	})
	h.run(t)
	if serverSum != 15 || clientSum != 150 {
		t.Fatalf("sums = %d, %d", serverSum, clientSum)
	}
}

func TestDialDownHostTimesOut(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, 0))
	h.host(1).SetDown(true)
	var err error
	var took sim.Time
	h.s.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		_, err = h.stacks[0].Dial(p, h.stacks[1].IP(), 5000)
		took = p.Now() - start
	})
	h.run(t)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if took < ms(100) {
		t.Fatalf("gave up too fast: %v", took)
	}
}

func TestSendToCrashedPeerTimesOut(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, 0))
	a, b := h.stacks[0], h.stacks[1]
	ln := b.MustListen(5000)
	h.s.Spawn("server", func(p *sim.Proc) {
		c, _ := ln.Accept(p)
		c.Recv(p)
	})
	var err error
	h.s.Spawn("client", func(p *sim.Proc) {
		c, derr := a.Dial(p, b.IP(), 5000)
		if derr != nil {
			t.Error(derr)
			return
		}
		c.Send(p, "warm", 100)
		h.host(1).SetDown(true)
		err = c.Send(p, "black hole", 1<<20)
	})
	h.run(t)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestStreamSurvivesPacketLoss(t *testing.T) {
	h := newHub(t, 2, netsim.LinkConfig{BandwidthBps: 1e9, LossRate: 0.02})
	a, b := h.stacks[0], h.stacks[1]
	ln := b.MustListen(5000)
	var got Message
	h.s.Spawn("server", func(p *sim.Proc) {
		c, _ := ln.Accept(p)
		got, _ = c.Recv(p)
	})
	h.s.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, b.IP(), 5000)
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.Send(p, "lossy", 300*1024); err != nil {
			t.Error(err)
		}
	})
	h.run(t)
	if got.Data != "lossy" || got.Size != 300*1024 {
		t.Fatalf("got %+v", got)
	}
}

// mcastHub subscribes hosts[1..] to a group fanned out by the switch.
func mcastGroup(h *hub, members ...int) netsim.IP {
	g := netsim.MustParseIP("239.1.2.3")
	var outs []int
	for _, m := range members {
		h.host(m).JoinMulticast(g)
		outs = append(outs, m)
	}
	h.groups[g] = outs
	return g
}

func TestMulticastAllReceivers(t *testing.T) {
	h := newHub(t, 4, netsim.Gbps(1, us(10)))
	g := mcastGroup(h, 1, 2, 3)
	var transfers []*Transfer
	for i := 1; i <= 3; i++ {
		r := h.stacks[i].MustBindMulticast(6000)
		h.s.Spawn("recv", func(p *sim.Proc) {
			tr, ok := r.Recv(p)
			if ok {
				transfers = append(transfers, tr)
			}
		})
	}
	var res *McastResult
	var err error
	h.s.Spawn("send", func(p *sim.Proc) {
		res, err = h.stacks[0].SendMulticast(p, McastOpts{
			To: g, ToPort: 6000, Data: "payload", Size: 100 * 1024, Receivers: 3,
		})
	})
	h.run(t)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finished) != 3 || len(transfers) != 3 {
		t.Fatalf("finished=%d transfers=%d", len(res.Finished), len(transfers))
	}
	for _, tr := range transfers {
		if tr.Data != "payload" || tr.Size != 100*1024 || tr.To != g {
			t.Fatalf("bad transfer %+v", tr)
		}
	}
	// Network optimality: the sender's link carried the data once
	// (plus protocol overhead), not three times.
	sent := h.host(0).Stats().BytesSent
	if sent > 110*1024 {
		t.Fatalf("sender pushed %d bytes for a 100KiB object: not multicast", sent)
	}
}

// TestMulticastFinishedTransferState checks what a receiver keeps once a
// transfer completes: no in-flight state, only the done record, which
// still re-confirms a duplicate tail with mctrlDone and never delivers the
// transfer a second time.
func TestMulticastFinishedTransferState(t *testing.T) {
	h := newHub(t, 3, netsim.Gbps(1, us(10)))
	g := mcastGroup(h, 1, 2)
	var rs []*MulticastReceiver
	delivered := 0
	for i := 1; i <= 2; i++ {
		r := h.stacks[i].MustBindMulticast(6000)
		rs = append(rs, r)
		h.s.Spawn("recv", func(p *sim.Proc) {
			for {
				if _, ok := r.Recv(p); !ok {
					return
				}
				delivered++
			}
		})
	}
	var res *McastResult
	var err error
	var confirms []*mctrlMsg
	h.s.Spawn("send", func(p *sim.Proc) {
		res, err = h.stacks[0].SendMulticast(p, McastOpts{
			To: g, ToPort: 6000, Data: "payload", Size: 100 * 1024, Receivers: 2,
		})
		if err != nil {
			return
		}
		for _, r := range rs {
			if len(r.rx) != 0 || len(r.done) != 1 {
				t.Errorf("after delivery: %d in-flight, %d done records; want 0, 1", len(r.rx), len(r.done))
			}
		}
		// Replay the transfer's tail chunk, as a retransmission would.
		ctl := h.stacks[0].MustBindUDP(0)
		last := res.Chunks - 1
		ctl.SendTo(g, 6000, &chunkMsg{xfer: 1, idx: last, total: res.Chunks, size: 100 * 1024,
			data: "payload", ackIP: h.stacks[0].IP(), ackPort: ctl.Port(), needAck: true}, 100*1024-last*MTU)
		for range rs {
			if d, ok := ctl.RecvTimeout(p, ms(5)); ok {
				confirms = append(confirms, d.Data.(*mctrlMsg))
			}
		}
	})
	h.run(t)
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("deliveries = %d, want 2: a duplicate tail must not redeliver", delivered)
	}
	if len(confirms) != 2 {
		t.Fatalf("duplicate tail drew %d replies, want 2", len(confirms))
	}
	for _, m := range confirms {
		if m.kind != mctrlDone || m.upTo != res.Chunks {
			t.Fatalf("duplicate tail answered with %+v, want mctrlDone upTo %d", m, res.Chunks)
		}
	}
}

func TestMulticastRepairsLoss(t *testing.T) {
	h := newHub(t, 3, netsim.LinkConfig{BandwidthBps: 1e9, LossRate: 0.05})
	g := mcastGroup(h, 1, 2)
	got := 0
	for i := 1; i <= 2; i++ {
		r := h.stacks[i].MustBindMulticast(6000)
		h.s.Spawn("recv", func(p *sim.Proc) {
			if _, ok := r.Recv(p); ok {
				got++
			}
		})
	}
	var res *McastResult
	var err error
	h.s.Spawn("send", func(p *sim.Proc) {
		res, err = h.stacks[0].SendMulticast(p, McastOpts{
			To: g, ToPort: 6000, Data: "x", Size: 200 * 1024, Receivers: 2,
			Timeout: 10 * time.Second,
		})
	})
	h.run(t)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("deliveries = %d, want 2", got)
	}
	if res.Repairs == 0 {
		t.Fatal("expected unicast repairs under 5% loss")
	}
}

func TestMulticastAnyK(t *testing.T) {
	// 1 fast + 2 slow receivers; any-2 must return at roughly the fast
	// pace... any-1 definitely must. Compare k=1 vs k=3 completion times.
	mk := func(k int) sim.Time {
		h := newHub(t, 4, netsim.Gbps(1, us(10)))
		g := mcastGroup(h, 1, 2, 3)
		// Throttle receivers 2 and 3.
		h.host(2).Port().Link().SetConfig(netsim.Mbps(50, us(10)))
		h.host(3).Port().Link().SetConfig(netsim.Mbps(50, us(10)))
		for i := 1; i <= 3; i++ {
			r := h.stacks[i].MustBindMulticast(6000)
			h.s.Spawn("recv", func(p *sim.Proc) {
				for {
					if _, ok := r.Recv(p); !ok {
						return
					}
				}
			})
		}
		var took sim.Time
		h.s.Spawn("send", func(p *sim.Proc) {
			start := p.Now()
			_, err := h.stacks[0].SendMulticast(p, McastOpts{
				To: g, ToPort: 6000, Data: "x", Size: 1 << 20, Receivers: 3, K: k,
				Timeout: 30 * time.Second,
			})
			if err != nil {
				t.Error(err)
			}
			took = p.Now() - start
		})
		h.run(t)
		return took
	}
	fast := mk(1)
	slow := mk(3)
	if fast*4 > slow {
		t.Fatalf("any-1 (%v) should be far faster than all-3 (%v) with slow replicas", fast, slow)
	}
}

func TestMulticastStragglersEventuallyFinish(t *testing.T) {
	h := newHub(t, 3, netsim.Gbps(1, us(10)))
	g := mcastGroup(h, 1, 2)
	h.host(2).Port().Link().SetConfig(netsim.Mbps(100, us(10)))
	finished := make([]bool, 3)
	for i := 1; i <= 2; i++ {
		i := i
		r := h.stacks[i].MustBindMulticast(6000)
		h.s.Spawn("recv", func(p *sim.Proc) {
			if _, ok := r.Recv(p); ok {
				finished[i] = true
			}
		})
	}
	h.s.Spawn("send", func(p *sim.Proc) {
		_, err := h.stacks[0].SendMulticast(p, McastOpts{
			To: g, ToPort: 6000, Data: "x", Size: 512 * 1024, Receivers: 2, K: 1,
			Timeout: 10 * time.Second,
		})
		if err != nil {
			t.Error(err)
		}
	})
	h.run(t)
	if !finished[1] || !finished[2] {
		t.Fatalf("finished = %v; straggler support should complete both", finished)
	}
}

func TestMulticastTimesOutWhenReceiversDown(t *testing.T) {
	h := newHub(t, 3, netsim.Gbps(1, 0))
	g := mcastGroup(h, 1, 2)
	h.stacks[1].MustBindMulticast(6000)
	h.stacks[2].MustBindMulticast(6000)
	h.host(2).SetDown(true)
	var err error
	h.s.Spawn("send", func(p *sim.Proc) {
		_, err = h.stacks[0].SendMulticast(p, McastOpts{
			To: g, ToPort: 6000, Data: "x", Size: 4, Receivers: 2,
			Timeout: 500 * time.Millisecond,
		})
	})
	h.run(t)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestMulticastSmallObjectLatency(t *testing.T) {
	// A 4-byte put payload is one chunk; latency should be on the order
	// of two hops + ack, i.e. well under a millisecond at 1 Gbps.
	h := newHub(t, 2, netsim.Gbps(1, us(10)))
	g := mcastGroup(h, 1)
	r := h.stacks[1].MustBindMulticast(6000)
	h.s.Spawn("recv", func(p *sim.Proc) { r.Recv(p) })
	var took sim.Time
	h.s.Spawn("send", func(p *sim.Proc) {
		start := p.Now()
		if _, err := h.stacks[0].SendMulticast(p, McastOpts{
			To: g, ToPort: 6000, Data: "x", Size: 4, Receivers: 1,
		}); err != nil {
			t.Error(err)
		}
		took = p.Now() - start
	})
	h.run(t)
	if took == 0 || took > ms(1) {
		t.Fatalf("4B multicast took %v", took)
	}
}

// Property: any payload size (1 byte to several MB) survives a stream
// round trip with its size intact, and the wire carried at least the
// payload.
func TestStreamSizeProperty(t *testing.T) {
	f := func(raw uint32) bool {
		size := int(raw%3_000_000) + 1
		h := newHub(t, 2, netsim.Gbps(1, us(5)))
		a, b := h.stacks[0], h.stacks[1]
		ln := b.MustListen(5000)
		var got Message
		h.s.Spawn("server", func(p *sim.Proc) {
			c, ok := ln.Accept(p)
			if !ok {
				return
			}
			got, _ = c.Recv(p)
		})
		okSend := true
		h.s.Spawn("client", func(p *sim.Proc) {
			c, err := a.Dial(p, b.IP(), 5000)
			if err != nil {
				okSend = false
				return
			}
			if err := c.Send(p, "payload", size); err != nil {
				okSend = false
			}
		})
		if err := h.s.Run(); err != nil {
			return false
		}
		wire := h.net.TotalLinkBytes()
		h.s.Shutdown()
		return okSend && got.Size == size && got.Data == "payload" && wire >= int64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the multicast transport delivers any size exactly once to
// every receiver, and the chunk count matches ceil(size/MTU).
func TestMulticastSizeProperty(t *testing.T) {
	f := func(raw uint32, nr uint8) bool {
		size := int(raw%2_000_000) + 1
		receivers := int(nr%3) + 1
		h := newHub(t, receivers+1, netsim.Gbps(1, us(5)))
		members := make([]int, receivers)
		for i := range members {
			members[i] = i + 1
		}
		g := mcastGroup(h, members...)
		delivered := 0
		for i := 1; i <= receivers; i++ {
			r := h.stacks[i].MustBindMulticast(6000)
			h.s.Spawn("recv", func(p *sim.Proc) {
				for {
					tr, ok := r.Recv(p)
					if !ok {
						return
					}
					if tr.Size == size {
						delivered++
					}
				}
			})
		}
		var res *McastResult
		var err error
		h.s.Spawn("send", func(p *sim.Proc) {
			res, err = h.stacks[0].SendMulticast(p, McastOpts{
				To: g, ToPort: 6000, Data: "x", Size: size, Receivers: receivers,
				Timeout: 30 * time.Second,
			})
		})
		if e := h.s.Run(); e != nil {
			return false
		}
		h.s.Shutdown()
		wantChunks := (size + MTU - 1) / MTU
		return err == nil && delivered == receivers && res.Chunks == wantChunks &&
			len(res.Finished) == receivers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPRecvTimeout(t *testing.T) {
	h := newHub(t, 1, netsim.Gbps(1, 0))
	sock := h.stacks[0].MustBindUDP(1234)
	var elapsed sim.Time
	h.s.Spawn("waiter", func(p *sim.Proc) {
		start := p.Now()
		if _, ok := sock.RecvTimeout(p, ms(7)); ok {
			t.Error("unexpected datagram")
		}
		elapsed = p.Now() - start
	})
	if err := h.s.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != ms(7) {
		t.Fatalf("timeout after %v, want 7ms", elapsed)
	}
	h.s.Shutdown()
}

func TestListenerClosedAcceptReturns(t *testing.T) {
	h := newHub(t, 1, netsim.Gbps(1, 0))
	ln := h.stacks[0].MustListen(5000)
	accepted := true
	h.s.Spawn("acceptor", func(p *sim.Proc) {
		_, accepted = ln.Accept(p)
	})
	h.s.At(ms(5), func() { ln.Close() })
	if err := h.s.Run(); err != nil {
		t.Fatal(err)
	}
	if accepted {
		t.Fatal("Accept returned ok after Close")
	}
	h.s.Shutdown()
}
