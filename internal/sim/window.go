package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// This file is the sharded half of the kernel: a conservative-lookahead
// ("null-message-free window") discrete-event scheduler over the shards
// declared in env.go, executed inline on the driver goroutine.
//
// The contract:
//
//   - Every process and every primitive (Queue, Resource, Signal) is
//     confined to exactly one shard. Within a shard, execution is the
//     serial coroutine-switched kernel, bit for bit.
//   - The only cross-shard edge is Proc.CrossAt(target, t, fn) (or
//     Env.CrossFrom from a callback), and t must be at least lookahead
//     beyond the sender's clock. The lookahead is the modeled interconnect
//     per-hop latency: no message can take effect on another socket sooner
//     than one hop.
//   - The driver alternates windows and barriers. At each barrier it drains
//     every shard's inbox into its heap in a deterministic order (sorted by
//     (at, source shard, source ticket)), then computes, for each shard s
//     with pending events, the window bound
//
//         limit(s) = min(horizon, min over other busy shards t of
//                        top(t) + lookahead - 1)
//
//     Shard s may execute every event at or before limit(s) without ever
//     seeing a late arrival: any message another shard could still send has
//     effect no earlier than top(t) + lookahead. The shards whose next event
//     lies inside their bound then run their windows one after another, in
//     shard order; the shard holding the globally minimal event always
//     qualifies, so every round makes progress.
//
// Determinism: window boundaries are a pure function of heap state, which
// is a pure function of prior windows and the deterministic inbox merge.
// Windows within one round are independent — shards interact only through
// inboxes drained at the next barrier — so every shard's event order, and
// hence every simulated result, is identical to the serial kernel's
// whenever the program's cross-shard sends are themselves deterministic.
//
// Windows run on the driver goroutine, never on host goroutines of their
// own. With a one-hop lookahead, engine windows hold about three events per
// shard, too few to pay for a barrier: a concurrent executor at best broke
// even with these same windows run inline (2 sockets) and ran at 0.50–0.79×
// their speed on 4 to 16, on a 2-CPU host. Only wider windows (a per-shard
// earliest-output time) could make host concurrency pay. What the protocol
// buys is confinement: an engine that shapes itself proves, run after run,
// that its shards touch each other only through posted messages.

// crossEvent is one cross-shard arrival parked in a shard's inbox until the
// next barrier. src/srcSeq make the merge order a total order: arrivals are
// sorted by (at, src, srcSeq) before local sequence numbers are assigned.
type crossEvent struct {
	at     Time
	src    int
	srcSeq uint64
	fn     func()
}

// compareCross is the inbox merge order.
func compareCross(a, b crossEvent) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.srcSeq, b.srcSeq)
}

// Shape reshapes the environment into shards serial kernels driven by the
// conservative window protocol: from the next RunUntil on, each round runs
// every eligible shard's window inline, in shard order, on the driver
// goroutine. Shaping lets engines confine their processes and primitives to
// shards at construction time (platform.Platform.Confine calls it); the
// lookahead checks in CrossAt then catch any cross-shard edge that is not a
// posted message.
//
// Shape must be called before the first RunUntil. Calling it again with the
// same shape is a no-op; a different shard count or lookahead panics.
// shards <= 1 leaves the environment serial.
func (e *Env) Shape(shards int, lookahead Duration) {
	if shards <= 1 {
		return
	}
	if e.shaped {
		if shards != len(e.shs) || lookahead != e.lookahead {
			panic(fmt.Sprintf("sim: Shape(%d, %v) conflicts with existing shape (%d, %v)",
				shards, lookahead, len(e.shs), e.lookahead))
		}
		return
	}
	if e.closed || e.dead {
		panic("sim: Shape on a closed environment")
	}
	if lookahead < 1 {
		panic("sim: Shape needs a positive lookahead")
	}
	e.shaped = true
	e.lookahead = lookahead
	for i := len(e.shs); i < shards; i++ {
		e.shs = append(e.shs, &shard{env: e, id: i})
	}
}

// EnableParallel is Shape under its earlier name, kept for callers written
// when shaped environments could also run their windows on host goroutines.
// It starts no host concurrency.
//
// Deprecated: use Shape.
func (e *Env) EnableParallel(shards int, lookahead Duration) { e.Shape(shards, lookahead) }

// Parallel reports whether Shape has split this environment into shards
// driven by the window protocol. The name predates the inline executor:
// a shaped environment still runs on one host goroutine.
func (e *Env) Parallel() bool { return e.shaped }

// NumShards reports the shard count (1 on a serial environment).
func (e *Env) NumShards() int { return len(e.shs) }

// Lookahead reports the cross-shard scheduling distance (0 when serial).
func (e *Env) Lookahead() Duration {
	if !e.shaped {
		return 0
	}
	return e.lookahead
}

// runWindows is RunUntil for a shaped environment: alternate barriers and
// rounds of windows until no shard holds an event at or before the horizon.
func (e *Env) runWindows(horizon Time) error {
	const inf = Time(1<<63 - 1)
	la := Time(e.lookahead)
	for e.err == nil {
		e.drainInboxes()
		// Find the two smallest heap tops; min over other shards' tops is
		// then O(1) per shard.
		min1, min2 := inf, inf
		var min1s *shard
		busy := 0
		for _, s := range e.shs {
			if len(s.events) == 0 {
				continue
			}
			busy++
			top := s.events[0].at
			if top < min1 {
				min2 = min1
				min1, min1s = top, s
			} else if top < min2 {
				min2 = top
			}
		}
		if busy == 0 || min1 > horizon {
			break
		}
		// Every bound uses the tops as they stood at the barrier, so a
		// round's windows are the same whichever order they run in.
		for _, s := range e.shs {
			if len(s.events) == 0 {
				continue
			}
			lim := horizon
			if busy > 1 {
				other := min1
				if s == min1s {
					other = min2
				}
				if b := other + la - 1; b < lim {
					lim = b
				}
			}
			if s.events[0].at > lim {
				s.stalls++
				continue
			}
			s.horizon = lim
			s.windows++
			s.run()
		}
	}
	e.drainInboxes()
	if e.err != nil {
		e.closed = true
		return e.err
	}
	return nil
}

// drainInboxes merges every shard's cross-shard arrivals into its heap in
// (at, src, srcSeq) order, assigning local sequence numbers in that order.
// It runs only at barriers. The sort is in place and each inbox keeps its
// backing array, so a warmed barrier allocates nothing.
func (e *Env) drainInboxes() {
	for _, s := range e.shs {
		if len(s.inbox) == 0 {
			continue
		}
		slices.SortFunc(s.inbox, compareCross)
		for _, ce := range s.inbox {
			s.push(event{at: ce.at, fn: ce.fn})
		}
		clear(s.inbox) // drop fn references for the collector
		s.inbox = s.inbox[:0]
	}
}

// CrossAt schedules fn to run on the target shard at time t — the only
// legal cross-shard edge from a process on a shaped environment. t must be
// at least the environment lookahead beyond the sender's clock; violating
// that panics, because a closer delivery could land in the target's
// already-executed past. fn runs as a scheduler callback on the target
// shard (it must not block) and may freely touch that shard's primitives:
// fire signals, post to queues, resume that shard's processes.
//
// On a serial environment (or to the caller's own shard) CrossAt is AtOn:
// the same program runs on both kernels, which is what the equivalence
// tests exercise.
func (p *Proc) CrossAt(target int, t Time, fn func()) {
	p.env.cross(p.sh, p.env.shs[target], t, fn)
}

// CrossFrom is CrossAt for code that executes on a shard without a process
// of its own — scheduler callbacks (signal OnFire hooks, CrossAt deliveries)
// that need to post back to another shard. src names the shard the caller is
// currently executing on; the same lookahead rule applies relative to that
// shard's clock. On a serial environment (or to the caller's own shard) it
// degenerates to AtOn, exactly like CrossAt.
func (e *Env) CrossFrom(src, target int, t Time, fn func()) {
	e.cross(e.shs[src], e.shs[target], t, fn)
}

// cross posts fn from shard s to shard tg at time t: straight onto tg's
// heap when no barrier separates them, else into tg's inbox under the
// lookahead rule. No window adjustment is needed: any send from a window
// (issued at or after the sender's heap top) lands at top + lookahead or
// later — strictly past every other shard's bound of top + lookahead - 1 —
// so a shard never merges an arrival into its executed past.
func (e *Env) cross(s, tg *shard, t Time, fn func()) {
	if !e.shaped || tg == s {
		if t < s.now {
			t = s.now
		}
		tg.push(event{at: t, fn: fn})
		return
	}
	if t < s.now.Add(e.lookahead) {
		panic(fmt.Sprintf("sim: cross-shard post from shard %d at %v for shard %d at %v violates lookahead %v",
			s.id, s.now, tg.id, t, e.lookahead))
	}
	s.crossSeq++
	tg.inbox = append(tg.inbox, crossEvent{at: t, src: s.id, srcSeq: s.crossSeq, fn: fn})
}

// ShardNow returns the given shard's clock. Outside a running window it is
// only meaningful from the driver (between RunUntil calls) or from code
// executing on that shard.
func (e *Env) ShardNow(shard int) Time { return e.shs[shard].now }

// ShardExecuted returns a snapshot of per-shard executed-event counts. The
// off-shard-0 entries are the proof that engine work really runs on foreign
// shards; the engine-sharding tests assert they are nonzero.
func (e *Env) ShardExecuted() []uint64 {
	out := make([]uint64, len(e.shs))
	for i, s := range e.shs {
		out[i] = s.executed
	}
	return out
}

// ShardWindows returns a snapshot of per-shard window-round counts: how
// many barrier rounds each shard ran a window in. Zero on the serial
// kernel, where RunUntil is one unbounded window.
func (e *Env) ShardWindows() []uint64 {
	out := make([]uint64, len(e.shs))
	for i, s := range e.shs {
		out[i] = s.windows
	}
	return out
}

// ShardStalls returns a snapshot of per-shard barrier-stall counts: rounds
// where the shard held pending events but its next event lay beyond the
// conservative window bound, so it sat the round out waiting on another
// shard's progress.
func (e *Env) ShardStalls() []uint64 {
	out := make([]uint64, len(e.shs))
	for i, s := range e.shs {
		out[i] = s.stalls
	}
	return out
}
