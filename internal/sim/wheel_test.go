package sim

import (
	"container/heap"
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

// TestWheelHeapDifferential drives the timer wheel and the retained
// eventHeap oracle through a randomized schedule/cancel/drain workload
// (following the dispatch loop's discipline: the clock only advances to
// popped events or drain bounds, inserts are never in the past, and a
// popped event is recycled at once, as fire does) and asserts that the
// wheel pops the exact (at, seq) sequence the heap's total order defines
// and that Pending() equals the oracle's live count after every step.
// Delay magnitudes span every wheel level, so cascades, the bound cutoff,
// and the lazy per-bucket seq sort are all exercised.
//
// Cancels go through Event.Cancel, which unfiles and recycles the event
// on the spot; the heap keeps its lazy form, skipping a cancelled shadow
// when it surfaces. Some cancels hit handles whose event already fired
// (and whose struct may be live again under a new generation): those
// must change nothing. The run must remove events from every position
// the wheel has: the front cache, the middle of a level-0 bucket, level-0
// buckets before and after their lazy seq sort, and coarse buckets both
// as filed and after a cascade.
func TestWheelHeapDifferential(t *testing.T) {
	const iters = 60000
	rng := rand.New(rand.NewSource(7))
	s := New(1)
	w := &s.wheel
	var h eventHeap                // shadows of the wheel's events: (at, seq) only
	cancelled := map[*event]bool{} // shadows of cancelled events, still in h
	type armed struct {
		ev     Event
		shadow *event
		filed  int // level the event enters the buckets at (cur cannot move before)
	}
	// pending maps each event still in the wheel to its handle; order
	// lists them for deterministic random picks (orderIdx[e] is e's index).
	pending := map[*event]armed{}
	var order []*event
	orderIdx := map[*event]int{}
	var fired [64]Event // recently fired handles, for stale cancels
	var now Time
	scheduled, popped, cancels, oracleLive := 0, 0, 0, 0
	removedAt := map[string]int{}
	// sortedL0 marks level-0 buckets that were sorted lazily since they
	// last emptied.
	sortedL0 := map[int]bool{}
	trackL0 := func(wasUnsorted *[wheelSlots]bool) {
		for i := range w.buckets[0] {
			b := &w.buckets[0][i]
			switch {
			case len(b.events) == 0:
				delete(sortedL0, i)
			case wasUnsorted != nil && wasUnsorted[i] && !b.unsorted:
				sortedL0[i] = true
			}
		}
	}
	forget := func(e *event) {
		k, last := orderIdx[e], len(order)-1
		order[k] = order[last]
		orderIdx[order[k]] = k
		order = order[:last]
		delete(orderIdx, e)
		delete(pending, e)
	}

	// Delay scales: same-instant wakes through multi-hour timers, one per
	// wheel level and then some.
	scales := []Time{0, 1, 63, 1 << 6, 1 << 12, 1 << 18, 1 << 24, 1 << 30,
		1 << 36, 1 << 42, 1 << 50, Time(3 * time.Hour)}

	delta := func() Time {
		s := scales[rng.Intn(len(scales))]
		if s == 0 {
			return 0
		}
		return s + Time(rng.Int63n(int64(s)+1))
	}
	push := func(d Time) {
		e := s.newEvent(now+d, nil)
		filed := w.level(e.at)
		w.push(e)
		sh := &event{at: e.at, seq: e.seq}
		heap.Push(&h, sh)
		pending[e] = armed{Event{e: e, gen: e.gen}, sh, filed}
		orderIdx[e] = len(order)
		order = append(order, e)
		scheduled++
		oracleLive++
	}
	// oracleMin drops cancelled shadows off the heap top and returns the
	// earliest live one (nil when none is left).
	oracleMin := func() *event {
		for h.Len() > 0 && cancelled[h[0]] {
			delete(cancelled, heap.Pop(&h).(*event))
		}
		if h.Len() == 0 {
			return nil
		}
		return h[0]
	}
	// popOne pops both structures and cross-checks; reports ok=false when
	// the wheel says nothing is due by bound.
	popOne := func(bound Time) bool {
		var wasUnsorted [wheelSlots]bool
		for i := range w.buckets[0] {
			wasUnsorted[i] = w.buckets[0][i].unsorted
		}
		we := w.popBound(bound)
		trackL0(&wasUnsorted)
		he := oracleMin()
		if we == nil {
			if he != nil && he.at <= bound {
				t.Fatalf("wheel dry at bound %d, heap still holds (at=%d seq=%d)",
					bound, he.at, he.seq)
			}
			return false
		}
		if he == nil || we.at != he.at || we.seq != he.seq {
			t.Fatalf("pop mismatch: wheel (at=%d seq=%d) vs heap %+v", we.at, we.seq, he)
		}
		heap.Pop(&h)
		if we.at > bound {
			t.Fatalf("wheel popped at=%d beyond bound %d", we.at, bound)
		}
		now = we.at
		fired[popped%len(fired)] = pending[we].ev
		forget(we)
		s.freeEvent(we)
		popped++
		oracleLive--
		return true
	}
	// position names where a pending event sits in the wheel.
	position := func(e *event, filed int) string {
		if w.next == e {
			return "front cache"
		}
		if lvl := w.level(e.at); lvl > 0 {
			if lvl < filed {
				return "coarse bucket, after a cascade"
			}
			return "coarse bucket, as filed"
		}
		idx := int(e.at) & wheelMask
		b := &w.buckets[0][idx]
		switch {
		case b.unsorted:
			return "level-0 bucket awaiting its lazy sort"
		case sortedL0[idx]:
			return "level-0 bucket after its lazy sort"
		case int(e.pos) < len(b.events)-1:
			return "level-0 bucket, mid"
		}
		return "level-0 bucket, tail"
	}
	// pick chooses an event to cancel: any pending one, one of the newest
	// (near-term events sit in the front cache and level 0), or one read
	// straight out of a level-0 bucket, which is where the seq-ordered
	// removal and the lazy sort live.
	pick := func() *event {
		switch rng.Intn(3) {
		case 0:
			return order[rng.Intn(len(order))]
		case 1:
			return order[len(order)-1-rng.Intn(min(len(order), 6))]
		}
		if occ := w.occupied[0]; occ != 0 {
			for k := rng.Intn(bits.OnesCount64(occ)); k > 0; k-- {
				occ &= occ - 1
			}
			b := &w.buckets[0][bits.TrailingZeros64(occ)]
			return b.events[b.head+rng.Intn(len(b.events)-b.head)]
		}
		return order[rng.Intn(len(order))]
	}
	cancelOne := func() {
		cancels++
		if rng.Intn(4) == 0 {
			// A stale handle: its event fired, and the struct may be
			// pending again under a newer generation.
			ev := fired[rng.Intn(len(fired))]
			n := s.Pending()
			ev.Cancel()
			if s.Pending() != n {
				t.Fatalf("cancelling a fired event changed Pending() from %d to %d", n, s.Pending())
			}
			removedAt["stale handle"]++
			return
		}
		if len(order) == 0 {
			return
		}
		e := pick()
		a := pending[e]
		removedAt[position(e, a.filed)]++
		cancelled[a.shadow] = true
		oracleLive--
		forget(e)
		a.ev.Cancel()
		a.ev.Cancel() // a second cancel is a no-op
		trackL0(nil)
	}

	for i := 0; i < iters; i++ {
		switch r := rng.Float64(); {
		case r < 0.55: // schedule a burst, some of it at one shared instant
			d := delta()
			for k := rng.Intn(4) + 1; k > 0; k-- {
				if rng.Intn(2) == 0 {
					d = delta()
				}
				push(d)
			}
		case r < 0.65: // cancel something
			cancelOne()
		case r < 0.85: // unbounded drain of a few events
			for k := rng.Intn(6) + 1; k > 0 && popOne(maxTime); k-- {
			}
		default: // bounded drain, mimicking RunUntil: clock lands on the bound
			bound := now + delta()
			for popOne(bound) {
			}
			now = bound
		}
		if s.Pending() != oracleLive {
			t.Fatalf("iter %d: Pending() = %d, oracle holds %d live events", i, s.Pending(), oracleLive)
		}
	}
	for popOne(maxTime) {
	}
	if s.Pending() != 0 || oracleLive != 0 || oracleMin() != nil {
		t.Fatalf("final drain left wheel=%d oracle=%d", s.Pending(), oracleLive)
	}
	removed := scheduled - popped
	t.Logf("differential: %d scheduled, %d popped, %d removed by %d cancels over %d iterations; removals by position: %v",
		scheduled, popped, removed, cancels, iters, removedAt)
	sum := 0
	for pos, n := range removedAt {
		if pos != "stale handle" {
			sum += n
		}
	}
	if sum != removed {
		t.Fatalf("%d events never popped but %d cancels removed one", removed, sum)
	}
	for _, pos := range []string{"front cache", "level-0 bucket, mid", "level-0 bucket, tail",
		"level-0 bucket awaiting its lazy sort", "level-0 bucket after its lazy sort",
		"coarse bucket, as filed", "coarse bucket, after a cascade", "stale handle"} {
		if removedAt[pos] == 0 {
			t.Errorf("no cancel removed an event from position %q", pos)
		}
	}
	if total := scheduled + popped + cancels; total < 100000 {
		t.Fatalf("workload too small for the differential claim: %d ops", total)
	}
}

// TestWheelSameInstantSeqOrder forces the cascade-after-direct-insert
// inversion: an old small-seq event parked in a coarse bucket must still
// pop before a newer event at the same timestamp that was filed directly
// into the level-0 bucket.
func TestWheelSameInstantSeqOrder(t *testing.T) {
	w := &timerWheel{}
	w.init()
	const T = Time(1<<18 + 37)
	early := &event{at: T, seq: 1} // filed coarse: cur is 0
	w.push(early)
	mid := &event{at: T - 100, seq: 2}
	w.push(mid)
	// Drain up to T-1: cascades both events toward level 0 and pops mid,
	// leaving `early` resident in the level-0 bucket for T.
	if e := w.popBound(T - 1); e != mid {
		t.Fatalf("expected mid event first, got %+v", e)
	}
	if e := w.popBound(T - 1); e != nil {
		t.Fatalf("expected nothing else before T, got %+v", e)
	}
	late := &event{at: T, seq: 3}
	w.push(late)
	if e := w.popBound(T); e != early {
		t.Fatalf("expected seq 1 before seq 3 at the shared instant, got seq %d", e.seq)
	}
	if e := w.popBound(T); e != late {
		t.Fatalf("expected seq 3 second, got %+v", e)
	}
	if w.n != 0 {
		t.Fatalf("wheel not empty: %d", w.n)
	}
}

// TestWheelFarFutureBound checks that a bound-limited scan against a far
// event neither pops it nor advances the cursor past the bound, so later
// inserts between now and the event stay schedulable.
func TestWheelFarFutureBound(t *testing.T) {
	w := &timerWheel{}
	w.init()
	far := &event{at: Time(time.Hour), seq: 1}
	w.push(far)
	if e := w.popBound(Time(time.Millisecond)); e != nil {
		t.Fatalf("bound-limited pop returned %+v", e)
	}
	if w.cur > Time(time.Millisecond) {
		t.Fatalf("cursor %d advanced past the bound", w.cur)
	}
	near := &event{at: Time(2 * time.Millisecond), seq: 2}
	w.push(near) // must not panic: cursor stayed at or below the bound
	if e := w.popBound(maxTime); e != near {
		t.Fatalf("expected near event first, got seq %d", e.seq)
	}
	if e := w.popBound(maxTime); e != far {
		t.Fatalf("expected far event second, got %+v", e)
	}
}

// TestWheelMinAtBound checks the minAt lower bound wakeAll relies on: it
// must never exceed the true minimum, and must go back to maxTime when
// the wheel drains.
func TestWheelMinAtBound(t *testing.T) {
	w := &timerWheel{}
	w.init()
	if w.minAt != maxTime {
		t.Fatalf("empty wheel minAt = %d", w.minAt)
	}
	evs := []*event{
		{at: 5, seq: 1}, {at: 5, seq: 2}, {at: 700, seq: 3}, {at: Time(time.Second), seq: 4},
	}
	for _, e := range evs {
		w.push(e)
	}
	for _, want := range evs {
		if w.minAt > want.at {
			t.Fatalf("minAt %d exceeds pending minimum %d", w.minAt, want.at)
		}
		if e := w.popBound(maxTime); e != want {
			t.Fatalf("expected seq %d, got seq %d", want.seq, e.seq)
		}
	}
	if w.minAt != maxTime {
		t.Fatalf("drained wheel minAt = %d", w.minAt)
	}
}
