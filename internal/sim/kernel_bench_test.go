package sim

import (
	"testing"
	"time"
)

// BenchmarkEventChurn measures the cost of scheduling and firing one event:
// the At → heap → pop → callback → free-list round trip. With the event
// pool this settles to zero steady-state allocations.
func BenchmarkEventChurn(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventChurnDeep keeps a deep heap (1k pending events) while
// churning, so pop cost includes realistic sift-down work.
func BenchmarkEventChurnDeep(b *testing.B) {
	s := New(1)
	for i := 0; i < 1024; i++ {
		s.After(time.Hour, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		if err := s.RunUntil(s.Now() + time.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSleepWake measures one Sleep round trip of a process: timer
// event plus park-list insert/remove. With direct handoff a lone sleeper
// drains its own wake event and resumes without any channel operation, so
// this should sit close to EventChurn rather than paying two goroutine
// switches per sleep.
func BenchmarkSleepWake(b *testing.B) {
	s := New(1)
	done := false
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
		done = true
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if !done {
		b.Fatal("sleeper did not finish")
	}
}

// BenchmarkQueueHandoff measures a producer/consumer pair exchanging one
// item per iteration through a Queue — the shape of every socket recv in
// the network stack.
func BenchmarkQueueHandoff(b *testing.B) {
	s := New(1)
	q := NewQueue[int](s)
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if _, ok := q.Pop(p); !ok {
				b.Error("queue closed early")
				return
			}
		}
	})
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Push(i)
			p.Sleep(0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcChurn measures a full spawn→run→exit cycle — the shape of
// per-request handler processes (rpc-handle, 2pc, qread). With the spawn
// pool the steady state re-arms a parked goroutine instead of creating a
// goroutine and channel per cycle, and allocates nothing.
func BenchmarkProcChurn(b *testing.B) {
	s := New(1)
	done := 0
	child := func(q *Proc) { done++ }
	s.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			s.Spawn("child", child)
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if done != b.N {
		b.Fatalf("ran %d of %d children", done, b.N)
	}
}

// BenchmarkBroadcastWake measures one event waking a fan of processes at
// once (multicast ack fan-in, Cond.Broadcast): a single batch-wake event
// queues all waiters on the ready queue and they run back-to-back.
// Reported ns/op covers one broadcast plus all 16 waiter round trips.
func BenchmarkBroadcastWake(b *testing.B) {
	const fan = 16
	s := New(1)
	c := NewCond(s)
	woke := 0
	for i := 0; i < fan; i++ {
		s.Spawn("waiter", func(p *Proc) {
			for j := 0; j < b.N; j++ {
				c.Wait(p)
				woke++
			}
		})
	}
	s.Spawn("caster", func(p *Proc) {
		for j := 0; j < b.N; j++ {
			p.Sleep(time.Microsecond) // let every waiter re-park
			c.Broadcast()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if woke != fan*b.N {
		b.Fatalf("woke %d of %d waits", woke, fan*b.N)
	}
}

// BenchmarkCancelledTimers measures schedule+cancel churn — the pattern of
// every PopTimeout/WaitTimeout deadline that does not fire.
func BenchmarkCancelledTimers(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := s.After(time.Microsecond, func() { b.Error("cancelled timer fired") })
		ev.Cancel()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCancelledTimeout measures the stream-RTO pattern: arm a 25 ms
// deadline, wake 10 µs later, cancel the deadline. Unlike
// CancelledTimers the deadline outlives many wakes, so it sits in a
// coarse wheel bucket when it is cancelled.
func BenchmarkCancelledTimeout(b *testing.B) {
	s := New(1)
	expired := func() { b.Error("cancelled timeout fired") }
	s.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			deadline := s.After(25*time.Millisecond, expired)
			p.Sleep(10 * time.Microsecond)
			deadline.Cancel()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
