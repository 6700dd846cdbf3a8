package sim

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"
	"weak"
)

func ms(n int) Time { return Time(n) * time.Millisecond }

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(ms(20), func() { order = append(order, 2) })
	s.At(ms(10), func() { order = append(order, 1) })
	s.At(ms(30), func() { order = append(order, 3) })
	s.At(ms(10), func() { order = append(order, 11) }) // same instant: FIFO
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != ms(30) {
		t.Fatalf("Now = %v, want %v", s.Now(), ms(30))
	}
}

func TestEventCancel(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.At(ms(5), func() { fired = true })
	ev.Cancel()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

// TestCancelReleasesClosure checks that Cancel lets go of the callback at
// once: a cancelled 1 s timer must not keep what its closure captured
// alive until the deadline passes.
func TestCancelReleasesClosure(t *testing.T) {
	s := New(1)
	s.After(time.Microsecond, func() {}) // the timer below files into a coarse bucket
	arm := func() (Event, weak.Pointer[[64]byte]) {
		buf := new([64]byte)
		return s.After(time.Second, func() { buf[0]++ }), weak.Make(buf)
	}
	ev, captured := arm()
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	ev.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("Pending after Cancel = %d, want 1: cancelled events are not pending", s.Pending())
	}
	runtime.GC()
	if captured.Value() != nil {
		t.Fatal("the cancelled timer's closure is still reachable after GC")
	}
}

// TestRunLimitClock pins where Run leaves the clock under SetLimit: on the
// limit when a pending event lies beyond it (that event stays queued), at
// the last fired event when the queue drains first. A cancelled event
// beyond the limit is not pending and so does not pull the clock forward.
func TestRunLimitClock(t *testing.T) {
	s := New(1)
	s.SetLimit(ms(50))
	s.At(ms(10), func() {})
	far := s.At(ms(80), func() {})
	far.Cancel()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != ms(10) || s.Pending() != 0 {
		t.Fatalf("drained run: Now = %v, Pending = %d; want 10ms, 0", s.Now(), s.Pending())
	}

	fired := false
	s.At(ms(20), func() {})
	s.At(ms(90), func() { fired = true })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != ms(50) || s.Pending() != 1 || fired {
		t.Fatalf("limited run: Now = %v, Pending = %d, fired = %v; want 50ms, 1, false",
			s.Now(), s.Pending(), fired)
	}
	s.SetLimit(0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != ms(90) || !fired {
		t.Fatalf("after lifting the limit: Now = %v, fired = %v; want 90ms, true", s.Now(), fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(ms(10), func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(ms(5), func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	s := New(1)
	var wake Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(ms(42))
		wake = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != ms(42) {
		t.Fatalf("woke at %v, want %v", wake, ms(42))
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", s.LiveProcs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func(seed int64) []string {
		s := New(seed)
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			s.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Sleep(ms(1 + s.Rand().Intn(5)))
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a := run(7)
	b := run(7)
	if len(a) != len(b) || len(a) != 9 {
		t.Fatalf("trace lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestQueuePushPop(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	var got []int
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := q.Pop(p)
			if !ok {
				t.Error("unexpected closed queue")
				return
			}
			got = append(got, v)
		}
	})
	s.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(ms(10))
			q.Push(i)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestQueuePopTimeout(t *testing.T) {
	s := New(1)
	q := NewQueue[string](s)
	var timedOut, gotValue bool
	var at Time
	s.Spawn("c", func(p *Proc) {
		if _, ok := q.PopTimeout(p, ms(5)); !ok {
			timedOut = true
			at = p.Now()
		}
		v, ok := q.PopTimeout(p, ms(100))
		gotValue = ok && v == "x"
	})
	s.At(ms(20), func() { q.Push("x") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || at != ms(5) {
		t.Fatalf("timeout at %v (fired=%v), want 5ms", at, timedOut)
	}
	if !gotValue {
		t.Fatal("second pop did not see pushed value")
	}
}

func TestQueueClose(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	q.Push(9)
	closedSeen := false
	s.Spawn("c", func(p *Proc) {
		if v, ok := q.Pop(p); !ok || v != 9 {
			t.Errorf("Pop = %d,%v want 9,true", v, ok)
		}
		if _, ok := q.Pop(p); !ok {
			closedSeen = true
		}
	})
	s.At(ms(3), func() { q.Close() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !closedSeen {
		t.Fatal("Pop on closed queue returned ok")
	}
}

func TestQueueFIFOAmongWaiters(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	var order []string
	mk := func(name string, delay Time) {
		s.Spawn(name, func(p *Proc) {
			p.Sleep(delay)
			if _, ok := q.Pop(p); ok {
				order = append(order, name)
			}
		})
	}
	mk("first", ms(1))
	mk("second", ms(2))
	s.At(ms(10), func() { q.Push(1) })
	s.At(ms(11), func() { q.Push(2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v", order)
	}
}

func TestFuture(t *testing.T) {
	s := New(1)
	f := NewFuture[int](s)
	results := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn("w", func(p *Proc) { results[i] = f.Wait(p) })
	}
	s.At(ms(7), func() { f.Set(99) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if results[0] != 99 || results[1] != 99 {
		t.Fatalf("results = %v", results)
	}
	if !f.Done() || f.Value() != 99 {
		t.Fatal("future not resolved")
	}
}

func TestFutureWaitTimeout(t *testing.T) {
	s := New(1)
	f := NewFuture[int](s)
	var ok1, ok2 bool
	s.Spawn("w", func(p *Proc) {
		_, ok1 = f.WaitTimeout(p, ms(5))
		_, ok2 = f.WaitTimeout(p, ms(100))
	})
	s.At(ms(50), func() { f.Set(1) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ok1 || !ok2 {
		t.Fatalf("ok1=%v ok2=%v, want false,true", ok1, ok2)
	}
}

func TestFutureDoubleSetPanics(t *testing.T) {
	s := New(1)
	f := NewFuture[int](s)
	f.Set(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double Set")
		}
	}()
	f.Set(2)
}

func TestGroup(t *testing.T) {
	s := New(1)
	g := NewGroup(s)
	g.Add(3)
	var doneAt Time
	s.Spawn("waiter", func(p *Proc) {
		g.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := ms(10 * i)
		s.At(d, func() { g.Done() })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != ms(30) {
		t.Fatalf("group released at %v, want 30ms", doneAt)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	s := New(1)
	s.Spawn("bad", func(p *Proc) {
		p.Sleep(ms(1))
		panic("boom")
	})
	if err := s.Run(); err == nil {
		t.Fatal("expected failure from panicking process")
	}
}

func TestShutdownReapsParkedProcs(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	for i := 0; i < 5; i++ {
		s.Spawn("stuck", func(p *Proc) { q.Pop(p) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.LiveProcs() != 5 {
		t.Fatalf("LiveProcs = %d, want 5", s.LiveProcs())
	}
	s.Shutdown()
	if s.LiveProcs() != 0 {
		t.Fatalf("after Shutdown LiveProcs = %d, want 0", s.LiveProcs())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(ms(10*i), func() { count++ })
	}
	if err := s.RunUntil(ms(35)); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if s.Now() != ms(35) {
		t.Fatalf("Now = %v, want 35ms", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

// Property: for any batch of (delay, value) pairs pushed by a producer, a
// consumer pops exactly the same values in push order.
func TestQueueOrderProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 64 {
			delays = delays[:64]
		}
		s := New(42)
		q := NewQueue[int](s)
		var got []int
		s.Spawn("consumer", func(p *Proc) {
			for range delays {
				v, ok := q.Pop(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		s.Spawn("producer", func(p *Proc) {
			for i, d := range delays {
				p.Sleep(Time(d) * time.Microsecond)
				q.Push(i)
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		if len(got) != len(delays) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
