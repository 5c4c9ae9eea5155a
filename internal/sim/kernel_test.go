package sim

import (
	"runtime"
	"strings"
	"testing"
)

// TestQueueAccountingWithPutFront pins the accounting contract across both
// enqueue paths: Puts counts every enqueue, MaxLen tracks the high-water
// mark, and ResidenceTime integrates queue time for normal and priority
// items alike.
func TestQueueAccountingWithPutFront(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, "q", 0)
	env.Spawn("p", func(p *Proc) {
		q.Put(p, 1)   // resident 30ns
		q.PutFront(2) // resident 30ns, at the head
		p.Wait(10 * Nanosecond)
		q.Put(p, 3) // resident 20ns
		p.Wait(20 * Nanosecond)
		if v, _ := q.TryGet(); v != 2 {
			t.Errorf("head = %v, want the PutFront item 2", v)
		}
		q.TryGet()
		q.TryGet()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if q.Puts() != 3 {
		t.Errorf("Puts = %d, want 3 (PutFront must count)", q.Puts())
	}
	if q.MaxLen() != 3 {
		t.Errorf("MaxLen = %d, want 3", q.MaxLen())
	}
	if want := 80 * Nanosecond; q.ResidenceTime() != want {
		t.Errorf("ResidenceTime = %v, want %v", q.ResidenceTime(), want)
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after drain", q.Len())
	}
}

// TestQueuePutFrontAheadOfWaitingItems checks that a priority item passes
// every item already waiting in the queue, including across ring growth.
func TestQueuePutFrontAheadOfWaitingItems(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, "q", 0)
	var got []int
	env.Spawn("p", func(p *Proc) {
		for i := 0; i < 20; i++ { // force several ring growths
			q.Put(p, i)
		}
		q.PutFront(100)
		q.PutFront(101) // most recent priority item first
		for {
			v, ok := q.TryGet()
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 22 || got[0] != 101 || got[1] != 100 {
		t.Fatalf("priority items did not jump the backlog: %v", got)
	}
	for i := 0; i < 20; i++ {
		if got[i+2] != i {
			t.Fatalf("backlog order disturbed: %v", got)
		}
	}
}

// TestQueueRingWraparound cycles a bounded queue far past its ring capacity
// in both FIFO and priority directions, checking order survives wraps.
func TestQueueRingWraparound(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, "q", 0)
	env.Spawn("p", func(p *Proc) {
		next := 0
		for round := 0; round < 50; round++ {
			for i := 0; i < 3; i++ {
				q.Put(p, round*10+i)
			}
			for i := 0; i < 3; i++ {
				v, ok := q.TryGet()
				if !ok || v != round*10+i {
					t.Errorf("round %d: got %v ok=%v, want %d", round, v, ok, round*10+i)
					return
				}
				next++
			}
		}
		if q.Len() != 0 {
			t.Errorf("queue not empty after cycles: %d", q.Len())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// parkEveryWay spawns one process parked in each blocking primitive — a
// Queue.Get nobody feeds, a Resource.Acquire behind a holder that never
// releases, and a Suspend nobody resumes — and returns a counter of how
// many of them have unwound through their deferred calls.
func parkEveryWay(env *Env) *int {
	unwound := new(int)
	q := NewQueue[int](env, "q", 0)
	res := NewResource(env, "r", 1)
	env.Spawn("holder", func(p *Proc) { res.Acquire(p) })
	env.Spawn("getter", func(p *Proc) {
		defer func() { *unwound++ }()
		q.Get(p)
	})
	env.Spawn("acquirer", func(p *Proc) {
		defer func() { *unwound++ }()
		p.Wait(Nanosecond)
		res.Acquire(p)
	})
	env.Spawn("suspender", func(p *Proc) {
		defer func() { *unwound++ }()
		p.Suspend()
	})
	return unwound
}

// TestCloseReapsParkedProcesses is the goroutine-leak regression test: a
// process panic ends the run while others are parked in every blocking
// primitive and one, spawned at the same instant, never got to run.
// RunUntil returns the panic; Env.Close must then unwind the parked ones
// through their defers and retire the unstarted one, leaving no goroutine.
func TestCloseReapsParkedProcesses(t *testing.T) {
	baseline := runtime.NumGoroutine()
	env := NewEnv()
	unwound := parkEveryWay(env)
	env.Spawn("boom", func(p *Proc) {
		p.Wait(2 * Nanosecond)
		p.Env().Spawn("late", func(p *Proc) {}) // would run after the panic
		panic("kaboom")
	})
	err := env.RunUntil(Time(Second))
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("RunUntil error = %v, want the process panic", err)
	}
	if env.Live() != 4 {
		t.Fatalf("Live = %d after the panic, want 3 parked + 1 unstarted", env.Live())
	}
	env.Close()
	if env.Live() != 0 {
		t.Fatalf("Close left %d processes parked", env.Live())
	}
	if *unwound != 3 {
		t.Fatalf("%d of 3 parked processes unwound through their defers", *unwound)
	}
	checkNoGoroutineLeak(t, baseline)
	env.Close() // idempotent
	if err := env.RunUntil(Time(Second)); err == nil {
		t.Fatal("closed environment must refuse to run")
	}
}

// TestCloseReapsCleanRunLeftovers checks Close also reaps processes that a
// clean (error-free) run left parked in each blocking primitive, unwinding
// them through their deferred calls.
func TestCloseReapsCleanRunLeftovers(t *testing.T) {
	env := NewEnv()
	unwound := parkEveryWay(env)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Live() != 3 {
		t.Fatalf("Live = %d, want 3 parked", env.Live())
	}
	env.Close()
	if env.Live() != 0 {
		t.Fatalf("Close left %d processes", env.Live())
	}
	if *unwound != 3 {
		t.Fatalf("%d of 3 parked processes unwound through their defers", *unwound)
	}
}

// TestCloseReapsNeverStartedProcesses checks Close retires processes that
// were spawned but never resumed: their bodies never run, Live reaches zero
// and their goroutines exit.
func TestCloseReapsNeverStartedProcesses(t *testing.T) {
	baseline := runtime.NumGoroutine()
	env := NewEnv()
	ran := false
	for i := 0; i < 4; i++ {
		env.Spawn("unstarted", func(p *Proc) { ran = true })
	}
	if env.Live() != 4 {
		t.Fatalf("Live = %d, want 4 spawned", env.Live())
	}
	env.Close()
	if env.Live() != 0 {
		t.Fatalf("Close left %d processes", env.Live())
	}
	if ran {
		t.Fatal("Close ran the body of a process that was never resumed")
	}
	checkNoGoroutineLeak(t, baseline)
}

// TestSerialCloseLeaksNoGoroutines is the serial kernel's counterpart of
// TestCloseReapsAllShards: a run stopped at its horizon leaves processes
// parked in primitives and in timer waits past the horizon, and after
// Close every process goroutine is gone.
func TestSerialCloseLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	env := NewEnv()
	parkEveryWay(env)
	for i := 0; i < 8; i++ {
		env.Spawn("sleeper", func(p *Proc) { p.Wait(Duration(i+1) * Second) })
	}
	if err := env.RunUntil(Time(Microsecond)); err != nil {
		t.Fatal(err)
	}
	if env.Live() != 11 {
		t.Fatalf("Live = %d at the horizon, want 3 parked + 8 sleeping", env.Live())
	}
	env.Close()
	checkNoGoroutineLeak(t, baseline)
}

// TestWakeOfFinishedProcessPanics checks resuming a process that has
// already returned is reported as the run's error instead of being lost.
func TestWakeOfFinishedProcessPanics(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	short := env.Spawn("short", func(p *Proc) {})
	env.Spawn("waker", func(p *Proc) {
		p.Wait(Nanosecond)
		p.Env().Resume(short)
	})
	err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "finished process") {
		t.Fatalf("Run error = %v, want a wake-of-finished-process panic", err)
	}
}

// TestWaitFastPathRespectsCallbacks checks the direct-advance fast path
// never skips over a scheduled callback: the callback must observe its own
// timestamp, strictly before the waiting process resumes.
func TestWaitFastPathRespectsCallbacks(t *testing.T) {
	env := NewEnv()
	var cbAt, wakeAt Time
	env.At(3*Time(Nanosecond), func() { cbAt = env.Now() })
	env.Spawn("w", func(p *Proc) {
		p.Wait(5 * Nanosecond) // must take the slow path: callback intervenes
		wakeAt = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if cbAt != 3*Time(Nanosecond) {
		t.Errorf("callback ran at %v, want 3ns", cbAt)
	}
	if wakeAt != 5*Time(Nanosecond) {
		t.Errorf("process resumed at %v, want 5ns", wakeAt)
	}
}

// TestWaitFastPathStopsAtHorizon checks the fast path cannot run the clock
// past a RunUntil horizon (the slow path parks the process instead).
func TestWaitFastPathStopsAtHorizon(t *testing.T) {
	env := NewEnv()
	ticks := 0
	env.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(Nanosecond) // sole runnable: eligible for the fast path
			ticks++
		}
	})
	if err := env.RunUntil(Time(7 * Nanosecond)); err != nil {
		t.Fatal(err)
	}
	if ticks != 7 {
		t.Fatalf("ticks = %d, want 7 (fast path overran the horizon)", ticks)
	}
	if env.Now() != Time(7*Nanosecond) {
		t.Fatalf("clock at %v, want 7ns", env.Now())
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 100 {
		t.Fatalf("ticks = %d after Run, want 100", ticks)
	}
}

// TestSuspendResume checks the worker-pool primitive: a suspended process
// resumes at the current time, after already-queued same-time events.
func TestSuspendResume(t *testing.T) {
	env := NewEnv()
	var worker *Proc
	var order []string
	idle := false
	env.Spawn("worker", func(p *Proc) {
		worker = p
		for round := 0; round < 2; round++ {
			idle = true
			p.Suspend()
			order = append(order, "work")
		}
	})
	env.Spawn("feeder", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Wait(Microsecond)
			if !idle {
				t.Error("feeder ran before worker went idle")
			}
			idle = false
			order = append(order, "feed")
			p.Env().Resume(worker)
			p.Wait(Microsecond / 2)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"feed", "work", "feed", "work"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestExecutedCountsEvents checks the events/sec denominator includes both
// scheduled wakes and fast-path advances.
func TestExecutedCountsEvents(t *testing.T) {
	env := NewEnv()
	env.Spawn("w", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Wait(Nanosecond)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 spawn wake + 10 waits.
	if got := env.Executed(); got != 11 {
		t.Fatalf("Executed = %d, want 11", got)
	}
}

// BenchmarkKernelEventLoop measures the steady-state event loop: a closed
// set of processes timer-stepping through interleaved waits, the hot path
// under every simulated measurement. Run with -benchmem: the loop must not
// allocate per event (the container/heap kernel paid two boxing
// allocations per event plus waiter-slice churn).
func BenchmarkKernelEventLoop(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	const procs = 16
	for i := 0; i < procs; i++ {
		i := i
		env.Spawn("p", func(p *Proc) {
			for j := 0; j < b.N; j++ {
				p.Wait(Duration(1 + (i+j)%7))
			}
		})
	}
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Executed())/float64(b.N), "events/op")
}

// BenchmarkKernelQueuePingPong measures a producer/consumer pair through a
// Queue — the DORA action-queue shape — including a PutFront per round.
func BenchmarkKernelQueuePingPong(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	q := NewQueue[int](env, "q", 0)
	done := 0
	env.Spawn("consumer", func(p *Proc) {
		for {
			_, ok := q.Get(p)
			if !ok {
				return
			}
			done++
		}
	})
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(p, i)
			q.PutFront(i)
			p.Wait(Nanosecond)
		}
		q.Close()
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	if done != 2*b.N {
		b.Fatalf("done = %d, want %d", done, 2*b.N)
	}
}

// BenchmarkKernelHandoff measures the bare cost of switching between
// processes: two processes bounce a token through a pair of queues, so
// every event wakes the other process — no Wait fast path, no self-wake,
// no callbacks. One op is one round trip (two process switches).
func BenchmarkKernelHandoff(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	ping := NewQueue[int](env, "ping", 0)
	pong := NewQueue[int](env, "pong", 0)
	env.Spawn("ponger", func(p *Proc) {
		for {
			v, ok := ping.Get(p)
			if !ok {
				return
			}
			pong.Put(p, v)
		}
	})
	env.Spawn("pinger", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(p, i)
			pong.Get(p)
		}
		ping.Close()
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Executed())/float64(b.N), "events/op")
}
