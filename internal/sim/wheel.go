package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// This file implements the kernel's event queue as a hierarchical timer
// wheel. The binary heap it replaced (eventHeap, kept in sim.go as the
// differential-test oracle) made every schedule and dispatch O(log n) in
// the pending-event count; DESIGN.md §11.6 measured its sift work at
// ~54% of flat CPU in a figure sweep. The wheel makes both operations
// O(1) amortized: an insert is two shifts, a bitmap OR and an append; a
// pop is two TrailingZeros scans and a slice index.
//
// Shape: wheelLevels levels of wheelSlots buckets each. Level L buckets
// span 2^(6L) ns of virtual time, so level 0 buckets hold exactly one
// timestamp and the top level spans the full 63-bit Time range. An event
// at absolute time t files under the level of the highest 6-bit field in
// which t differs from the wheel cursor `cur`, at index (t >> 6L) & 63 —
// absolute indexing, no modular wrap. Far-future events sit in coarse
// buckets until dispatch reaches them, then cascade toward level 0, each
// re-filing strictly downward (after the cursor advances to the bucket's
// start, the remaining difference is confined to lower fields), so every
// event cascades at most wheelLevels-1 times over its lifetime.
//
// Determinism: dispatch order must stay bit-identical to the heap's
// total order on (at, seq). Two facts make the scan order-correct:
//
//   - cur is a lower bound on every scheduled event's time. It only
//     advances to the start of the bucket holding the current minimum
//     (and only when that start is within the run's bound, so user code
//     never observes cur > now and causality keeps inserts at or after
//     it). Under that invariant an event's level strictly identifies the
//     highest field where it exceeds cur, hence the lowest non-empty
//     level's lowest-index bucket always holds the global minimum.
//   - Within a level-0 bucket all events share one timestamp and only
//     seq orders them. Direct inserts arrive in seq order, but a cascade
//     can drop an older (smaller-seq) event into a bucket after a newer
//     direct insert, so buckets sort by seq lazily on first pop after
//     going out of order.
//
// Cancellation: most timers (receiver gap timers, stream RTOs, reply
// deadlines) are stopped long before they expire, so a cancelled event
// leaves the wheel at once instead of riding its cascades to the
// deadline. Every filed event records its index in its bucket (event.pos);
// its level and slot need no storage, because the invariant above makes
// them a function of its time and the cursor. remove is O(1) in a coarse
// bucket (swap with the last event: coarse buckets are unordered) and
// shifts the tail of a level-0 bucket (they are drained in seq order).
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64 buckets per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 11 // 6*11 = 66 bits ≥ the 63-bit Time range
)

// wheelBucket is one slot's event list. head and unsorted are only
// meaningful at level 0, where buckets are drained in place: events[:head]
// have been popped, events[head:] are pending, and unsorted marks a
// cascade having broken seq order. Capacity is reused across activations.
type wheelBucket struct {
	events   []*event
	head     int
	unsorted bool
}

// timerWheel is the simulator's event queue.
type timerWheel struct {
	// next caches the earliest event outside any bucket. The kernel's
	// dominant pattern — schedule one timer, pop it moments later
	// (Sleep, packet delivery) — then costs a pointer swap instead of a
	// bucket round trip and cascade. Invariant: when non-nil, next
	// orders before every bucket event, and the cursor has not moved
	// since next was filed (popping buckets is what advances it), so a
	// displaced next can always re-file legally.
	next *event
	// cur is the scan cursor: a lower bound on every scheduled event's
	// timestamp. All bitmap indices are interpreted relative to its
	// high-order fields.
	cur Time
	// n counts scheduled events, including next, so Pending() is O(1).
	// Cancelled events are not among them: remove takes them out.
	n int
	// minAt is a conservative lower bound on the earliest pending event
	// (maxTime when empty). wakeAll uses minAt > now as a cheap proof
	// that no event can fire at the current instant, and push uses
	// e.at < minAt as a cheap proof that e is the new minimum.
	minAt Time
	// summary bit L is set iff occupied[L] != 0; occupied[L] bit i is set
	// iff buckets[L][i] holds events.
	summary  uint32
	occupied [wheelLevels]uint64
	buckets  [wheelLevels][wheelSlots]wheelBucket
}

func (w *timerWheel) init() { w.minAt = maxTime }

// level returns the wheel level for an event at absolute time t: the
// 6-bit field of the highest bit in which t differs from the cursor
// (level 0 when t equals the cursor's 64 ns window).
func (w *timerWheel) level(t Time) int {
	return (63 - bits.LeadingZeros64(uint64(t^w.cur))) / wheelBits
}

// push files e, parking it in the front cache when it is provably the new
// minimum: the buckets are empty, e beats the conservative minAt bound, or
// e beats the cached minimum directly (which then re-files into the
// buckets — legal because the cursor never moves while the cache is
// occupied). Everything else goes through pushBucket.
func (w *timerWheel) push(e *event) {
	if nx := w.next; nx == nil {
		if e.at < w.minAt || w.summary == 0 {
			w.next = e
			w.n++
			if e.at < w.minAt {
				w.minAt = e.at
			}
			return
		}
	} else if e.at < nx.at {
		w.next = e
		if e.at < w.minAt {
			w.minAt = e.at
		}
		e = nx // pushBucket's count covers the net one-event growth
	}
	w.pushBucket(e)
}

// pushBucket files e into its bucket. Scheduling before the cursor would
// break the scan-order invariant; causality (At panics on t < now) plus the
// bounded cursor advance make it unreachable, so it is a hard failure.
func (w *timerWheel) pushBucket(e *event) {
	if e.at < w.cur {
		panic(fmt.Sprintf("sim: wheel insert at %v before cursor %v", e.at, w.cur))
	}
	lvl := w.level(e.at)
	idx := int(e.at>>(uint(lvl)*wheelBits)) & wheelMask
	b := &w.buckets[lvl][idx]
	if lvl == 0 {
		if n := len(b.events); n > b.head && e.seq < b.events[n-1].seq {
			b.unsorted = true // an older event cascaded in after newer inserts
		}
	}
	e.pos = int32(len(b.events))
	b.events = append(b.events, e)
	w.occupied[lvl] |= 1 << idx
	w.summary |= 1 << lvl
	w.n++
	if e.at < w.minAt {
		w.minAt = e.at
	}
}

// bucketStart returns the absolute time at which bucket idx of level lvl
// begins: the cursor's fields above lvl, idx in field lvl, zeros below.
// At the top level the shifted mask overflows to "keep nothing", which is
// exactly right.
func (w *timerWheel) bucketStart(lvl, idx int) Time {
	shift := uint(lvl) * wheelBits
	return Time(uint64(w.cur)&^(uint64(1)<<(shift+wheelBits)-1) | uint64(idx)<<shift)
}

// popBound removes and returns the earliest event if its time is at most
// bound, cascading coarse buckets toward level 0 as needed. It returns
// nil — leaving the queue untouched beyond already-safe cursor advances —
// when the wheel is empty or the earliest event lies beyond bound. The
// front cache, when occupied, IS the minimum, so the common case is a
// pointer swap with no bucket traffic at all.
func (w *timerWheel) popBound(bound Time) *event {
	if e := w.next; e != nil {
		if e.at > bound {
			return nil
		}
		w.next = nil
		w.n--
		w.refreshMin()
		return e
	}
	return w.popBucket(bound)
}

// popBucket is the bucket-scan slow path of popBound: it finds the lowest
// pending bucket via the occupancy bitmaps, cascading coarse levels toward
// level 0 until the minimum sits in a single-timestamp bucket.
func (w *timerWheel) popBucket(bound Time) *event {
	for {
		if w.summary == 0 {
			return nil
		}
		lvl := bits.TrailingZeros32(w.summary)
		idx := bits.TrailingZeros64(w.occupied[lvl])
		if lvl > 0 {
			start := w.bucketStart(lvl, idx)
			if start > bound {
				return nil
			}
			w.cascade(lvl, idx, start)
			continue
		}
		// Level 0: the bucket holds exactly the events at time t.
		t := w.cur&^Time(wheelMask) | Time(idx)
		if t > bound {
			return nil
		}
		b := &w.buckets[0][idx]
		if b.unsorted {
			slices.SortFunc(b.events[b.head:], func(a, c *event) int {
				if a.seq < c.seq {
					return -1
				}
				return 1
			})
			for i := b.head; i < len(b.events); i++ {
				b.events[i].pos = int32(i)
			}
			b.unsorted = false
		}
		e := b.events[b.head]
		b.events[b.head] = nil
		b.head++
		if b.head == len(b.events) {
			b.events = b.events[:0]
			b.head = 0
			w.occupied[0] &^= 1 << idx
			if w.occupied[0] == 0 {
				w.summary &^= 1
			}
		}
		w.n--
		w.refreshMin()
		return e
	}
}

// cascade redistributes bucket (lvl, idx) after advancing the cursor to
// its start. Every event re-files at a strictly lower level: with the
// cursor now sharing fields lvl and above with each event, their highest
// differing field is below lvl.
func (w *timerWheel) cascade(lvl, idx int, start Time) {
	w.cur = start
	w.occupied[lvl] &^= 1 << idx
	if w.occupied[lvl] == 0 {
		w.summary &^= 1 << lvl
	}
	b := &w.buckets[lvl][idx]
	evs := b.events
	b.events = b.events[:0]
	w.n -= len(evs) // pushBucket re-counts
	for i, e := range evs {
		// pushBucket, not push: diverting the minimum into the front cache
		// mid-scan would hide it from popBucket's bitmap walk.
		w.pushBucket(e)
		evs[i] = nil // drop the stale reference in the reused backing array
	}
}

// remove unfiles a scheduled event that will not fire. level(e.at) is
// still the level the event was filed at: the cursor only advances within
// fields it already shares with every bucketed event.
func (w *timerWheel) remove(e *event) {
	w.n--
	if w.next == e {
		w.next = nil
		w.refreshMin()
		return
	}
	lvl := w.level(e.at)
	idx := int(e.at>>(uint(lvl)*wheelBits)) & wheelMask
	b := &w.buckets[lvl][idx]
	i, last := int(e.pos), len(b.events)-1
	if i < b.head || i > last || b.events[i] != e {
		panic(fmt.Sprintf("sim: cancelled event (at=%v seq=%d) not at its wheel position", e.at, e.seq))
	}
	if lvl == 0 {
		// Level 0 pops in seq order: close the gap by shifting.
		copy(b.events[i:], b.events[i+1:])
		for _, x := range b.events[i:last] {
			x.pos--
		}
	} else {
		b.events[i] = b.events[last]
		b.events[i].pos = int32(i)
	}
	b.events[last] = nil
	b.events = b.events[:last]
	if len(b.events) == b.head {
		b.events = b.events[:0]
		b.head = 0
		b.unsorted = false
		w.occupied[lvl] &^= 1 << idx
		if w.occupied[lvl] == 0 {
			w.summary &^= 1 << lvl
		}
	}
	if w.next == nil {
		w.refreshMin()
	}
}

// refreshMin recomputes the minAt lower bound after a pop or a removal
// (every caller has the front cache empty, so buckets are everything):
// the exact next timestamp when level 0 still holds events, else the
// start of the lowest pending bucket (below every event in it), else
// maxTime.
func (w *timerWheel) refreshMin() {
	if w.summary == 0 {
		w.minAt = maxTime
		return
	}
	lvl := bits.TrailingZeros32(w.summary)
	idx := bits.TrailingZeros64(w.occupied[lvl])
	if lvl == 0 {
		w.minAt = w.cur&^Time(wheelMask) | Time(idx)
		return
	}
	w.minAt = w.bucketStart(lvl, idx)
}
