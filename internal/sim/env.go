package sim

import (
	"fmt"
	"runtime/debug"
)

// Env is a discrete-event simulation environment: a virtual clock plus an
// event queue. Processes spawned on an Env run strictly one at a time per
// shard; every wake-up is mediated by the event queue with ties broken by
// insertion order, so a simulation is deterministic for a given program and
// seed.
//
// An Env must be created with NewEnv and driven from a single goroutine via
// Run or RunUntil. Everything it runs — every shard, process and callback —
// executes on that goroutine or on a process coroutine it has switched to,
// one at a time, so the kernel needs no locks.
//
// The environment owns one or more shards, each a complete serial event
// kernel: its own clock, sequence counter and heap. NewEnv creates exactly
// one shard and everything runs on it — the serial kernel, unchanged.
// Shape (window.go) adds shards driven by a conservative-lookahead window
// protocol; processes and primitives are confined to one shard each, and
// the only cross-shard edge is Proc.CrossAt, which must respect the
// lookahead.
type Env struct {
	shs []*shard

	shaped    bool     // Shape ran: RunUntil uses the window protocol
	lookahead Duration // minimum cross-shard scheduling distance (shaped only)

	procs []*Proc
	live  int   // processes that have been spawned and not yet finished
	err   error // first process panic, adorned with a stack trace

	closed bool
	dead   bool // Close ran: parked processes are being (or have been) reaped
}

// shard is one serial event kernel: a clock, a sequence counter and a flat
// binary min-heap over []event keyed by (at, seq). Because seq is unique the
// key is a total order, so the pop sequence is independent of heap layout
// details — and unlike container/heap there is no interface boxing on push
// or type assertion on pop, which keeps the steady-state event loop
// allocation-free.
type shard struct {
	env      *Env
	id       int
	now      Time
	seq      uint64
	events   []event // binary min-heap ordered by (at, seq)
	cur      *Proc   // running process, or the one the driver resumes next
	horizon  Time    // active window bound; fast-path waits must not pass it
	executed uint64  // events executed, including fast-path waits

	// Window-protocol fields (see window.go).
	inbox    []crossEvent // cross-shard arrivals, merged at the next barrier
	crossSeq uint64       // ticket counter for posts ORIGINATING on this shard
	windows  uint64       // window rounds this shard ran (shaped only)
	stalls   uint64       // barrier rounds this shard sat out on its bound

	// Host-side sampler hook (see SetSampler). The hook fires whenever the
	// shard clock crosses obsNext — checked at the two places the clock
	// advances (dispatch and the Wait fast path) — so sampling schedules no
	// kernel events and cannot perturb the event order.
	obsTick Duration
	obsNext Time
	obsFn   func(now Time)
}

type event struct {
	at  Time
	seq uint64
	p   *Proc  // process to wake, or
	fn  func() // callback to run in the scheduler
}

// NewEnv returns an empty single-shard environment with the clock at zero.
func NewEnv() *Env {
	e := &Env{}
	e.shs = []*shard{{env: e, id: 0}}
	return e
}

// Now returns the current simulated time: the shard clock on a serial
// environment, and the maximum shard clock on a shaped one (the time the
// whole machine has provably reached when the driver observes it between
// RunUntil calls).
func (e *Env) Now() Time {
	if !e.shaped {
		return e.shs[0].now
	}
	var m Time
	for _, s := range e.shs {
		if s.now > m {
			m = s.now
		}
	}
	return m
}

// Executed reports how many events the environment has executed so far
// (timer wakes, callbacks, and fast-path clock advances), summed over all
// shards. It is the denominator for kernel events/sec measurements.
func (e *Env) Executed() uint64 {
	var n uint64
	for _, s := range e.shs {
		n += s.executed
	}
	return n
}

// At schedules fn to run at time t (clamped to the present) on shard 0, in
// whichever coroutine dispatches it: the shard's driver or a parking
// process. Callbacks must not block; they are for lightweight bookkeeping
// such as statistics sampling. Consecutive due callbacks run back-to-back
// with no process switch.
func (e *Env) At(t Time, fn func()) { e.AtOn(0, t, fn) }

// AtOn schedules fn at time t on the given shard, clamped to that shard's
// present. It must be called from the driver between runs or from a process
// confined to the same shard; cross-shard scheduling from a running process
// must go through Proc.CrossAt, which enforces the lookahead.
func (e *Env) AtOn(shard int, t Time, fn func()) {
	s := e.shs[shard]
	if t < s.now {
		t = s.now
	}
	s.push(event{at: t, fn: fn})
}

// push assigns the next sequence number and sifts the event up the heap.
func (s *shard) push(ev event) {
	ev.seq = s.seq
	s.seq++
	s.events = append(s.events, ev)
	i := len(s.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		p := s.events[parent]
		if p.at < ev.at || (p.at == ev.at && p.seq < ev.seq) {
			break
		}
		s.events[i] = p
		i = parent
	}
	s.events[i] = ev
}

// pop removes and returns the minimum event.
func (s *shard) pop() event {
	top := s.events[0]
	n := len(s.events) - 1
	last := s.events[n]
	s.events[n] = event{} // drop fn/p references for the collector
	s.events = s.events[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n {
				if s.events[r].at < s.events[c].at ||
					(s.events[r].at == s.events[c].at && s.events[r].seq < s.events[c].seq) {
					c = r
				}
			}
			if last.at < s.events[c].at || (last.at == s.events[c].at && last.seq < s.events[c].seq) {
				break
			}
			s.events[i] = s.events[c]
			i = c
		}
		s.events[i] = last
	}
	return top
}

// scheduleWake arranges for p to resume at time t on p's shard. Exactly one
// wake may be outstanding per parked process; double wakes are a kernel
// bug, and so is waking a process that has returned (its ended coroutine
// could never take the shard's control back). t is clamped to the shard's
// present so a wake computed from a slightly stale clock can never drag the
// shard backwards in time.
func (e *Env) scheduleWake(p *Proc, t Time) {
	if p.waking {
		panic(fmt.Sprintf("sim: double wake of process %q", p.name))
	}
	if p.done {
		panic(fmt.Sprintf("sim: wake of finished process %q", p.name))
	}
	p.waking = true
	if t < p.sh.now {
		t = p.sh.now
	}
	p.sh.push(event{at: t, p: p})
}

// Run executes events until none remain or a process panics. Processes left
// blocked on queues, resources or signals when the event queue drains are
// abandoned; use Close on queues and Fire on signals to release them for a
// clean shutdown, or Env.Close to reap whatever remains. Run returns the
// first process panic as an error.
func (e *Env) Run() error { return e.RunUntil(Time(1<<63 - 1)) }

// RunUntil executes events with timestamps not after horizon. The clock
// stops at the last executed event (it does not jump to the horizon).
//
// Every process is a coroutine (coro.go) and the calling goroutine is the
// shard's driver: it resumes one process at a time with a direct coroutine
// switch, which runs the process on the driver's OS thread without the Go
// scheduler's run queue or a futex wakeup. A parking process dispatches
// the next events itself — callbacks inline, its own wake by simply
// continuing — and switches back to the driver only when the next event
// names another process (left in the shard's cur for the driver to
// resume) or nothing is runnable. The event order, hence every simulated
// result, does not depend on which goroutine pops the events.
//
// On a shaped environment RunUntil runs the conservative window protocol
// (window.go) instead; within each shard the dispatch discipline and event
// order are identical to the serial kernel.
func (e *Env) RunUntil(horizon Time) error {
	if e.closed {
		return fmt.Errorf("sim: environment already closed")
	}
	if e.shaped {
		return e.runWindows(horizon)
	}
	s := e.shs[0]
	s.horizon = horizon
	s.run()
	if e.err != nil {
		e.closed = true
		return e.err
	}
	return nil
}

// run drives the shard until nothing is runnable within its horizon: it
// dispatches the first ready events, then resumes whichever process the
// last dispatch selected, until a dispatch selects none. It runs on the
// driver, for the whole run on a serial environment and for one window at
// a time on a shaped one.
func (s *shard) run() {
	s.dispatch()
	for s.cur != nil {
		s.cur.resume()
	}
}

// dispatch executes ready events until one wakes a process or nothing
// remains within the shard's horizon, and leaves the woken process (or nil)
// in s.cur. Callback events run inline in the dispatching goroutine —
// batched back-to-back with no process switch.
func (s *shard) dispatch() {
	e := s.env
	s.cur = nil
	for {
		if e.dead || e.err != nil || len(s.events) == 0 || s.events[0].at > s.horizon {
			return
		}
		ev := s.pop()
		s.now = ev.at
		s.executed++
		if s.obsFn != nil && s.now >= s.obsNext {
			s.fireObs()
		}
		if ev.fn != nil {
			ev.fn()
			continue
		}
		ev.p.waking = false
		s.cur = ev.p
		return
	}
}

// procKilled is the panic sentinel a stopped process raises so its
// coroutine unwinds and exits; the process's exit treats it as a normal
// termination, not a process error.
type procKilled struct{}

// Close reaps every process still blocked in the environment — processes
// left parked when RunUntil returned early on a panic, blocked forever on
// queues and resources no one will ever signal, or spawned and never
// resumed — on every shard, not just shard 0. Each parked process is
// stopped: its park returns by panicking with a sentinel, so its coroutine
// unwinds and exits before Close moves on. A process that never started has
// no body to unwind and is simply retired. Live then drops to zero. The
// environment is unusable afterwards; Close is idempotent and must be
// called from the driving goroutine, never from a process.
func (e *Env) Close() {
	if e.dead {
		return
	}
	e.dead = true
	e.closed = true
	for _, p := range e.procs {
		if p.done {
			continue
		}
		p.stop()
		if !p.done {
			p.retire() // spawned but never resumed: its body never ran
		}
	}
	e.procs = nil
	for _, s := range e.shs {
		s.events = nil
	}
}

// Spawn starts a new simulated process executing fn on shard 0. The process
// is a coroutine on its own goroutine; it first runs at the current
// simulated time, after the caller parks or returns, when the shard's
// driver resumes it. The name appears in diagnostics only. A process that
// calls runtime.Goexit (testing's FailNow) ends the goroutine that drives
// RunUntil too, on serial and shaped environments alike: every shard runs
// on that goroutine, so there is no other goroutine left waiting on it.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc { return e.SpawnOn(0, name, fn) }

// SpawnOn starts a new simulated process confined to the given shard. On a
// shaped environment a process must only touch primitives bound to its own
// shard (see Queue.OnShard, Resource.OnShard, Signal.OnShard) and talk to
// other shards through Proc.CrossAt. Spawning onto a foreign shard while
// that shard is running breaks confinement; spawn at setup time, from the
// driver, or onto the caller's own shard.
func (e *Env) SpawnOn(shard int, name string, fn func(p *Proc)) *Proc {
	s := e.shs[shard]
	p := &Proc{env: e, sh: s, name: name}
	e.live++
	// procs exists so Close can reap; drop finished entries once they
	// dominate, so long runs with many short-lived processes stay O(live).
	if len(e.procs) >= 64 && len(e.procs) >= 2*e.live {
		kept := e.procs[:0]
		for _, old := range e.procs {
			if !old.done {
				kept = append(kept, old)
			}
		}
		for i := len(kept); i < len(e.procs); i++ {
			e.procs[i] = nil
		}
		e.procs = kept
	}
	e.procs = append(e.procs, p)
	p.start(func() {
		defer p.exit()
		fn(p)
	})
	e.scheduleWake(p, s.now)
	return p
}

// exit runs, deferred, when p's body returns or unwinds: it records the
// first panic as the run's error (the Close sentinel is a normal
// termination), retires p, and dispatches the next events so the driver
// resumes their process.
func (p *Proc) exit() {
	if r := recover(); r != nil {
		if _, killed := r.(procKilled); !killed && p.env.err == nil {
			p.env.err = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
		}
	}
	p.retire()
	p.sh.dispatch()
}

// retire marks p finished and drops it from the live count.
func (p *Proc) retire() {
	p.done = true
	p.env.live--
}

// Live reports the number of spawned processes that have not finished.
func (e *Env) Live() int { return e.live }

// Proc is a simulated process: a coroutine that runs only when its shard's
// driver resumes it and must park (via Wait or a blocking kernel primitive)
// or return to yield control. All Proc methods must be called from the
// process's own goroutine. A process is confined to the shard it was
// spawned on.
type Proc struct {
	env    *Env
	sh     *shard
	name   string
	resume func() (struct{}, bool) // driver: switch into p until it yields or returns
	stop   func()                  // Close: unwind p (or discard it if never started)
	yield  func(struct{}) bool     // p: switch back to the driver; false once stopped
	waking bool
	done   bool
}

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Shard returns the shard index the process is confined to.
func (p *Proc) Shard() int { return p.sh.id }

// Now returns the current simulated time on the process's shard.
func (p *Proc) Now() Time { return p.sh.now }

// park blocks p until some event wakes it. The caller must have arranged a
// wake (a timer event or registration on a queue/resource/signal waiter
// list) before parking. The parking process dispatches the next events
// itself: when its own wake comes up it just continues, with no switch at
// all; otherwise it switches back to the shard's driver, which resumes the
// process the dispatch selected (if any), and p continues when the driver
// resumes it in turn. A park that Close stops unwinds p with procKilled.
func (p *Proc) park() {
	if p.env.dead {
		panic(procKilled{})
	}
	p.sh.dispatch()
	if p.sh.cur == p {
		return
	}
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Wait advances the process's local time by d without consuming any modelled
// resource. Negative durations are treated as zero.
//
// When the wake this Wait would schedule is provably the next event — no
// queued event precedes it and it stays inside the shard's horizon — the
// clock advances directly: no heap push, no park, no scheduler round trip.
// The schedule is bit-identical to the slow path because the skipped event
// would have been popped immediately with nothing able to run in between.
func (p *Proc) Wait(d Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sh
	t := s.now.Add(d)
	if s.cur == p && t <= s.horizon && (len(s.events) == 0 || s.events[0].at > t) {
		s.now = t
		s.executed++
		if s.obsFn != nil && s.now >= s.obsNext {
			s.fireObs()
		}
		return
	}
	p.env.scheduleWake(p, t)
	p.park()
}

// Yield reschedules the process at the current time, letting every other
// runnable event at this timestamp execute first.
func (p *Proc) Yield() { p.Wait(0) }

// Suspend parks the process indefinitely. The caller must have registered
// the process somewhere a later Resume will find it — Suspend/Resume is the
// primitive behind worker pools that reuse one process (and its coroutine)
// for many units of work instead of spawning per unit. A Resume costs
// exactly what a Spawn's initial wake costs (one event at the current
// time), so pooling changes allocation behavior, never the event schedule.
func (p *Proc) Suspend() { p.park() }

// Resume schedules suspended process p to continue at the current time on
// p's shard. Resuming a process that is not suspended (or already has a
// wake pending) panics. On a shaped environment Resume must come from p's
// own shard (or a CrossAt callback delivered to it).
func (e *Env) Resume(p *Proc) { e.scheduleWake(p, p.sh.now) }

// SetSampler installs a host-side observation hook on a shard: fn runs,
// wherever the shard is executing, the first time the shard clock reaches
// each multiple of tick. The hook is out of band — it is invoked from the
// clock-advance path rather than from a scheduled event, so installing it
// pushes nothing onto the heap, allocates no sequence numbers and cannot
// change the event order, window bounds or any simulated result. fn must
// only read simulation state (and write host-side records); it runs with
// the shard mid-event, must not block and must not touch kernel
// primitives. A nil fn removes the hook. tick must be positive.
func (e *Env) SetSampler(shard int, tick Duration, fn func(now Time)) {
	s := e.shs[shard]
	if fn == nil {
		s.obsFn = nil
		return
	}
	if tick <= 0 {
		panic("sim: SetSampler needs a positive tick")
	}
	s.obsTick = tick
	s.obsNext = s.now.Add(tick)
	s.obsFn = fn
}

// fireObs invokes the sampler for the tick boundary the clock just crossed,
// then advances the next boundary past the present — one sample per tick
// while the shard is busy, a single catch-up sample (at the last crossed
// boundary) after an idle jump. The cadence is a pure function of the
// shard's event times, so it is identical on serial and shaped
// environments.
func (s *shard) fireObs() {
	t := s.obsNext
	tick := Time(s.obsTick)
	if behind := s.now - t; behind >= tick {
		k := behind / tick
		t += k * tick
	}
	s.obsNext = t + tick
	s.obsFn(t)
}

// ShardCounters returns one shard's cumulative kernel counters: events
// executed (including fast-path clock advances), window rounds run and
// barrier rounds sat out (both zero on the serial kernel). Safe from the
// driver between runs or from code executing on that shard.
func (e *Env) ShardCounters(shard int) (executed, windows, stalls uint64) {
	s := e.shs[shard]
	return s.executed, s.windows, s.stalls
}
