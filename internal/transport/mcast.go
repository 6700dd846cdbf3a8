package transport

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Debug enables multicast transport tracing (tests only).
var Debug bool

func dbg(s *sim.Simulator, format string, args ...any) {
	if Debug {
		fmt.Printf("%v mcast ", s.Now())
		fmt.Printf(format, args...)
		fmt.Println()
	}
}

// Multicast transport tuning (§5 "Replication"): data is chunked below a
// single MTU, NACKs repair losses over unicast, and ACKs drive flow
// control. The quorum ("any-k") variant advances its window when any k
// receivers acknowledge and returns when any k finish.
const (
	// McastWindow is the flow-control window in chunks (~45 KB).
	McastWindow = 32
	// mcastRTO is how long the sender waits for window acks before
	// retransmitting.
	mcastRTO = 25 * time.Millisecond
	// mcastMaxRetries bounds sender persistence per window.
	mcastMaxRetries = 4
	// gapTimeout is how long a receiver waits on an incomplete transfer
	// before NACKing the missing chunks.
	gapTimeout = 5 * time.Millisecond
	// gapMaxNacks bounds receiver-side repair attempts (dead sender).
	gapMaxNacks = 8
	// StragglerTimeout is how long an any-k sender keeps serving repair
	// traffic for receivers outside the quorum after returning.
	StragglerTimeout = 250 * time.Millisecond
	// mctrlSize is the wire size of ACK/NACK/DONE messages.
	mctrlSize = 64
)

// chunkMsg is one multicast data chunk.
type chunkMsg struct {
	xfer    uint64
	idx     int
	total   int
	size    int // total transfer payload bytes
	data    any // application message, on the last chunk
	ackIP   netsim.IP
	ackPort uint16 // sender's control socket
	needAck bool   // window boundary: receivers ack on receipt
}

// ChunkPayload unwraps a multicast chunk's application message. It lets
// switch-resident stages (e.g. the harmonia dirty-set) recognize the
// protocol message a multicast transfer carries without exporting the
// chunk framing itself: only the final chunk of a transfer carries the
// message, so a stage acting on it sees each transfer exactly once per
// switch traversal (retransmitted repairs re-deliver the same message,
// so stages must be idempotent).
func ChunkPayload(payload any) (any, bool) {
	m, ok := payload.(*chunkMsg)
	if !ok || m.data == nil {
		return nil, false
	}
	return m.data, true
}

type mctrlKind uint8

const (
	mctrlAck mctrlKind = iota + 1
	mctrlNack
	mctrlDone
)

// mctrlMsg is a receiver-to-sender control message (unicast UDP).
type mctrlMsg struct {
	kind    mctrlKind
	xfer    uint64
	upTo    int   // ack: contiguous chunks received
	missing []int // nack: chunk indexes to repair
	port    uint16
}

// Transfer is a complete multicast message delivered to a receiver.
type Transfer struct {
	From     netsim.IP // sender's physical address
	FromPort uint16    // sender's control port (for protocol replies)
	To       netsim.IP // group address the data arrived on
	Data     any
	Size     int
	Xfer     uint64
}

// xferKey identifies a transfer at a receiver.
type xferKey struct {
	from netsim.IP
	xfer uint64
}

// rxState tracks one in-flight inbound transfer.
type rxState struct {
	have     []bool
	count    int
	total    int
	contig   int
	maxIdx   int // highest chunk index seen: NACKs never reach past it
	fires    int // total gap-timer firings; bounds abandoned transfers
	gapTimer sim.Event
	nacks    int
	data     any // stashed from the data-bearing last chunk
	size     int
	hasData  bool
}

// MulticastReceiver receives reliable-multicast transfers on a port. Bind
// one per storage node; the node must separately join the group address
// at its host NIC.
type MulticastReceiver struct {
	stack *Stack
	port  uint16
	ctrl  *UDPSocket // replies to senders
	rq    *sim.Queue[*Transfer]
	rx    map[xferKey]*rxState // in-flight transfers only
	// done holds each finished transfer's chunk count: enough to answer a
	// duplicate tail with mctrlDone and never deliver the transfer twice,
	// without keeping its chunk bitmap, timer and payload.
	done map[xferKey]int
}

// BindMulticast binds a multicast receiver on port.
func (st *Stack) BindMulticast(port uint16) (*MulticastReceiver, error) {
	if _, dup := st.mrecv[port]; dup {
		return nil, ErrClosed
	}
	ctrl, err := st.BindUDP(0)
	if err != nil {
		return nil, err
	}
	r := &MulticastReceiver{
		stack: st,
		port:  port,
		ctrl:  ctrl,
		rq:    sim.NewQueue[*Transfer](st.s),
		rx:    make(map[xferKey]*rxState),
		done:  make(map[xferKey]int),
	}
	st.mrecv[port] = r
	return r, nil
}

// MustBindMulticast is BindMulticast that panics on error.
func (st *Stack) MustBindMulticast(port uint16) *MulticastReceiver {
	r, err := st.BindMulticast(port)
	if err != nil {
		panic(err)
	}
	return r
}

// Recv blocks until a complete transfer arrives.
func (r *MulticastReceiver) Recv(p *sim.Proc) (*Transfer, bool) { return r.rq.Pop(p) }

// RecvTimeout is Recv with a deadline.
func (r *MulticastReceiver) RecvTimeout(p *sim.Proc, d sim.Time) (*Transfer, bool) {
	return r.rq.PopTimeout(p, d)
}

// Close unbinds the receiver.
func (r *MulticastReceiver) Close() {
	if r.stack.mrecv[r.port] == r {
		delete(r.stack.mrecv, r.port)
	}
	r.ctrl.Close()
	r.rq.Close()
}

func (r *MulticastReceiver) send(to netsim.IP, toPort uint16, m *mctrlMsg) {
	m.port = r.port
	r.ctrl.SendTo(to, toPort, m, mctrlSize-netsim.UDPHeaderSize)
}

// recvChunk is called by the stack for every arriving chunk (multicast or
// unicast repair).
func (r *MulticastReceiver) recvChunk(pkt *netsim.Packet, m *chunkMsg) {
	key := xferKey{m.ackIP, m.xfer}
	if total, finished := r.done[key]; finished {
		// Duplicate tail of a finished transfer: re-confirm.
		r.send(m.ackIP, m.ackPort, &mctrlMsg{kind: mctrlDone, xfer: m.xfer, upTo: total})
		return
	}
	st, ok := r.rx[key]
	if !ok {
		st = &rxState{have: make([]bool, m.total), total: m.total}
		r.rx[key] = st
	}
	if m.idx >= 0 && m.idx < st.total && !st.have[m.idx] {
		st.have[m.idx] = true
		st.count++
		if m.idx > st.maxIdx {
			st.maxIdx = m.idx
		}
		for st.contig < st.total && st.have[st.contig] {
			st.contig++
		}
	}
	if m.idx == m.total-1 && !st.hasData {
		st.hasData = true
		st.data = m.data
		st.size = m.size
	}
	if st.count == st.total {
		st.gapTimer.Cancel()
		delete(r.rx, key)
		r.done[key] = st.total
		r.send(m.ackIP, m.ackPort, &mctrlMsg{kind: mctrlDone, xfer: m.xfer, upTo: st.total})
		r.rq.Push(&Transfer{
			From:     m.ackIP,
			FromPort: m.ackPort,
			To:       pkt.DstIP,
			Data:     st.data,
			Size:     st.size,
			Xfer:     m.xfer,
		})
		return
	}
	if m.needAck {
		r.send(m.ackIP, m.ackPort, &mctrlMsg{kind: mctrlAck, xfer: m.xfer, upTo: st.contig})
		if st.contig <= m.idx {
			r.nackMissing(key, st, m, m.idx+1)
		}
	}
	// (Re)arm the gap timer: if the transfer stalls, NACK what is missing.
	st.gapTimer.Cancel()
	st.gapTimer = r.stack.s.After(gapTimeout, func() { r.gapFired(key, m) })
}

// nackMissing asks the sender to repair the missing chunks below bound.
func (r *MulticastReceiver) nackMissing(key xferKey, st *rxState, m *chunkMsg, bound int) {
	var missing []int
	for i := st.contig; i < bound && i < st.total; i++ {
		if !st.have[i] {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		r.send(m.ackIP, m.ackPort, &mctrlMsg{kind: mctrlNack, xfer: m.xfer, missing: missing})
	}
}

func (r *MulticastReceiver) gapFired(key xferKey, m *chunkMsg) {
	st, ok := r.rx[key]
	if !ok {
		return
	}
	st.fires++
	if st.fires > 64 {
		delete(r.rx, key) // abandoned transfer: sender gave up long ago
		return
	}
	// Only chunks behind the highest index seen can be genuinely lost;
	// everything past maxIdx may simply not have been transmitted yet
	// (the sender is pacing on flow control).
	if st.contig <= st.maxIdx {
		st.nacks++
		if st.nacks > gapMaxNacks {
			delete(r.rx, key) // give up: sender is gone
			return
		}
		r.nackMissing(key, st, m, st.maxIdx+1)
	}
	st.gapTimer = r.stack.s.After(gapTimeout, func() { r.gapFired(key, m) })
}

// McastOpts parameterizes one reliable multicast send.
type McastOpts struct {
	To        netsim.IP // group (or multicast-vring) address
	ToPort    uint16
	Data      any
	Size      int
	Receivers int // expected group size
	K         int // quorum: return after any K receivers finish (0 = all)
	Timeout   sim.Time
}

// McastResult reports a completed multicast send.
type McastResult struct {
	Finished []netsim.IP // receivers that completed, in completion order
	Chunks   int
	Repairs  int // chunks retransmitted via unicast repair
}

// txPeer tracks the sender's view of one receiver.
type txPeer struct {
	upTo int
	done bool
}

// SendMulticast performs one reliable multicast transfer from this stack
// and blocks until all receivers (or any K, when opts.K > 0) have the
// whole message. Repair traffic for stragglers continues in the
// background after an any-k send returns, as in the paper's quorum
// transport.
func (st *Stack) SendMulticast(p *sim.Proc, opts McastOpts) (*McastResult, error) {
	if opts.Receivers <= 0 {
		panic("transport: SendMulticast needs Receivers > 0")
	}
	k := opts.K
	if k <= 0 || k > opts.Receivers {
		k = opts.Receivers
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	deadline := st.s.Now() + timeout

	ctrl, err := st.BindUDP(0)
	if err != nil {
		return nil, err
	}
	st.xferSeq++
	xfer := st.xferSeq

	total := (opts.Size + MTU - 1) / MTU
	if total == 0 {
		total = 1
	}
	res := &McastResult{Chunks: total}
	peers := make(map[netsim.IP]*txPeer)

	sendChunk := func(idx int, unicastTo netsim.IP, needAck bool) {
		m := &chunkMsg{
			xfer: xfer, idx: idx, total: total, size: opts.Size,
			ackIP: st.IP(), ackPort: ctrl.Port(), needAck: needAck,
		}
		if idx == total-1 {
			m.data = opts.Data
		}
		chunkSize := MTU
		if idx == total-1 {
			chunkSize = opts.Size - (total-1)*MTU
			if chunkSize <= 0 {
				chunkSize = 1
			}
		}
		dst := opts.To
		if unicastTo != 0 {
			dst = unicastTo
			res.Repairs++
		}
		ctrl.SendTo(dst, opts.ToPort, m, chunkSize)
	}

	// handle applies one control message to the sender's state.
	handle := func(d *Datagram) {
		m, ok := d.Data.(*mctrlMsg)
		if !ok || m.xfer != xfer {
			return
		}
		pe := peers[d.From]
		if pe == nil {
			pe = &txPeer{}
			peers[d.From] = pe
		}
		switch m.kind {
		case mctrlAck:
			if m.upTo > pe.upTo {
				pe.upTo = m.upTo
			}
		case mctrlDone:
			pe.upTo = total
			if !pe.done {
				pe.done = true
				res.Finished = append(res.Finished, d.From)
			}
		case mctrlNack:
			dbg(st.s, "NACK from %v: %d missing (first %d)", d.From, len(m.missing), m.missing[0])
			for _, idx := range m.missing {
				sendChunk(idx, d.From, false)
			}
			// Repairing the tail re-requests an ack so flow control can
			// make progress past the repaired window.
			if n := len(m.missing); n > 0 {
				sendChunk(m.missing[n-1], d.From, true)
			}
		}
	}
	countAt := func(mark int) int {
		n := 0
		for _, pe := range peers {
			if pe.upTo >= mark || pe.done {
				n++
			}
		}
		return n
	}

	for base := 0; base < total; base += McastWindow {
		end := base + McastWindow
		if end > total {
			end = total
		}
		dbg(st.s, "window %d-%d (k=%d)", base, end, k)
		for i := base; i < end; i++ {
			sendChunk(i, 0, i == end-1)
		}
		retries := 0
		for countAt(end) < k {
			remain := deadline - st.s.Now()
			if remain <= 0 {
				ctrl.Close()
				return res, ErrTimeout
			}
			wait := sim.Time(mcastRTO)
			if wait > remain {
				wait = remain
			}
			d, ok := ctrl.RecvTimeout(p, wait)
			if !ok {
				retries++
				if retries > mcastMaxRetries {
					ctrl.Close()
					return res, ErrTimeout
				}
				// Re-solicit acks by retransmitting the window tail.
				sendChunk(end-1, 0, true)
				continue
			}
			retries = 0
			handle(d)
		}
	}

	// Wait for K completions.
	for len(res.Finished) < k {
		remain := deadline - st.s.Now()
		if remain <= 0 {
			ctrl.Close()
			return res, ErrTimeout
		}
		d, ok := ctrl.RecvTimeout(p, minTime(sim.Time(mcastRTO), remain))
		if !ok {
			sendChunk(total-1, 0, true)
			continue
		}
		handle(d)
	}

	if len(res.Finished) >= opts.Receivers {
		ctrl.Close()
		return res, nil
	}

	// Quorum reached but stragglers remain: keep repairing in the
	// background, then release the control socket.
	st.s.Spawn("mcast-straggler", func(bp *sim.Proc) {
		stop := st.s.Now() + StragglerTimeout
		for len(res.Finished) < opts.Receivers {
			remain := stop - st.s.Now()
			if remain <= 0 {
				break
			}
			d, ok := ctrl.RecvTimeout(bp, remain)
			if !ok {
				break
			}
			handle(d)
		}
		ctrl.Close()
	})
	return res, nil
}

func minTime(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}
