package bench

import (
	"reflect"
	"testing"

	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// This file pins the engine-on-shard execution contract: a sharded-log DORA
// machine homes each socket's partitions, trees, pool, locks and log shard
// on that socket's kernel shard, and the only legal cross-shard edges are
// posted interconnect messages. The tests prove three things: the digest
// matches a pinned golden, the engine work really executes off shard 0
// under the window protocol (a run that quietly fell back to shard-0
// execution could still match — confinement needs the witness), and the
// crash/recovery and failover families are a pure function of the seed at
// 2/4/8 sockets, whatever the sweep pool's size.

// engineShardGoldenDigest is the pinned sweep digest of engineShardSpec
// below at 2, 4 and 8 sockets.
const engineShardGoldenDigest = "a71002e29396f8ea02fe0ec1686af613db92253a89d669b6af66d5ef400eacf3"

// engineShardSpec is the DORA-only sharded-log scaling spec every test
// here runs: at 2+ sockets with no offloads, no replication and window 1,
// these points take the engine-sharded path.
func engineShardSpec(sockets []int) Spec {
	return Spec{
		Group:      "fig-scaling",
		Sockets:    sockets,
		Workloads:  []WorkloadSpec{smallYCSB()},
		Engines:    DefaultScalingEngines()[1:2], // dora
		Terminals:  []int{4},
		ShardedLog: true,
		Warmup:     1 * sim.Millisecond,
		Measure:    3 * sim.Millisecond,
	}
}

// TestEngineShardGoldenDigest pins engine-on-shard execution at 2, 4 and 8
// sockets: the run must reproduce the recorded golden digest, and every
// point must show kernel events on at least two shards with work off shard
// 0 — the witness that the engines actually moved, not just that the
// results agree.
func TestEngineShardGoldenDigest(t *testing.T) {
	points := engineShardSpec([]int{2, 4, 8}).Points()
	results := mustRun(t, "engine-shard", points, Options{Parallel: 2})
	if got := Digest(results); got != engineShardGoldenDigest {
		t.Errorf("engine-shard digest drifted:\n got  %s\n want %s", got, engineShardGoldenDigest)
	}
	for _, r := range results {
		by := r.Res.EventsByShard
		if len(by) != r.Point.Sockets {
			t.Fatalf("x%d: EventsByShard has %d shards", r.Point.Sockets, len(by))
		}
		busy := 0
		var offZero uint64
		for s, n := range by {
			if n > 0 {
				busy++
			}
			if s > 0 {
				offZero += n
			}
		}
		if offZero == 0 {
			t.Errorf("x%d: no kernel events off shard 0 — engines did not shard", r.Point.Sockets)
		}
		if busy < 2 {
			t.Errorf("x%d: engine work on %d shard(s), want >= 2", r.Point.Sockets, busy)
		}
	}
}

// TestEngineShardWindowCounters pins the window counters' reporting: an
// engine-sharded point, with no kernel option of any kind, reports window
// rounds on at least two shards, because its engine shaped the kernel.
func TestEngineShardWindowCounters(t *testing.T) {
	r := mustRun(t, "engine-shard/x2", engineShardSpec([]int{2}).Points(), Options{Parallel: 1})[0]
	if n := len(r.Res.WindowsByShard); n != 2 || len(r.Res.StallsByShard) != 2 {
		t.Fatalf("WindowsByShard has %d shards, StallsByShard %d; want 2 each", n, len(r.Res.StallsByShard))
	}
	busy := 0
	for _, w := range r.Res.WindowsByShard {
		if w > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("windows on %d shard(s), want 2: %v", busy, r.Res.WindowsByShard)
	}
}

// TestEngineShardRecoveryEquivalence runs the crash/recovery family on
// engine-sharded machines at 2, 4 and 8 sockets and requires the full
// result structs — crash image, replayed content, timings, energy — to be
// DeepEqual between a one-worker and a three-worker sweep pool, the only
// host concurrency a run can meet.
func TestEngineShardRecoveryEquivalence(t *testing.T) {
	spec := engineShardSpec([]int{2, 4, 8})
	serial := spec.RunRecovery(Options{Parallel: 1})
	pooled := spec.RunRecovery(Options{Parallel: 3})
	for i := range serial {
		if serial[i].Err != nil || pooled[i].Err != nil {
			t.Fatalf("x%d: serial err %v, pooled err %v", serial[i].Sockets, serial[i].Err, pooled[i].Err)
		}
		if serial[i].Rows == 0 {
			t.Errorf("x%d: recovered no rows", serial[i].Sockets)
		}
	}
	if !reflect.DeepEqual(serial, pooled) {
		t.Errorf("engine-shard recovery diverges across pool sizes:\nserial %+v\npooled %+v", serial, pooled)
	}
}

// TestEngineShardFailoverSteadyEquivalence covers the failover family's
// engine-sharded rows: replication forces the classic layout, so only the
// unreplicated steady-state baselines take the engine-on-shard path — at
// 2, 4 and 8 sockets they must be DeepEqual between a one-worker and a
// three-worker sweep pool.
func TestEngineShardFailoverSteadyEquivalence(t *testing.T) {
	spec := FailoverSpec{
		Sockets:            []int{2, 4, 8},
		Modes:              []stats.ReplMode{stats.ReplNone},
		Workload:           func(sockets int) WorkloadSpec { return smallYCSB() },
		ShardedLog:         true,
		TerminalsPerSocket: 4,
		Seed:               42,
		Warmup:             1 * sim.Millisecond,
		Measure:            3 * sim.Millisecond,
	}
	serialFo, serialSteady := spec.RunFailover(Options{Parallel: 1})
	pooledFo, pooledSteady := spec.RunFailover(Options{Parallel: 3})
	for i := range serialFo {
		if serialFo[i].Err != nil || pooledFo[i].Err != nil {
			t.Fatalf("x%d: serial err %v, pooled err %v", serialFo[i].Sockets, serialFo[i].Err, pooledFo[i].Err)
		}
	}
	if !reflect.DeepEqual(serialFo, pooledFo) {
		t.Errorf("engine-shard failover rows diverge across pool sizes:\nserial %+v\npooled %+v", serialFo, pooledFo)
	}
	if ds, dp := Digest(serialSteady), Digest(pooledSteady); ds != dp {
		t.Errorf("steady-state digests diverge across pool sizes: serial %s vs pooled %s", ds, dp)
	}
}

// FuzzEngineShard drives engine-on-shard runs with fuzzed socket counts and
// seeds: any input that breaks the window protocol (a lookahead violation
// or a confinement panic surfaces as a run error) or gives two runs of the
// same point different digests is a crasher.
func FuzzEngineShard(f *testing.F) {
	f.Add(uint8(0), uint64(42))
	f.Add(uint8(1), uint64(7))
	f.Add(uint8(2), uint64(1234))
	f.Fuzz(func(t *testing.T, rawSockets uint8, seed uint64) {
		n := 2 << (int(rawSockets) % 3) // 2, 4 or 8 sockets
		spec := engineShardSpec([]int{n})
		spec.Seeds = []uint64{seed%100000 + 1}
		spec.Measure = 2 * sim.Millisecond
		first := Run(spec.Points(), Options{Parallel: 1})
		again := Run(spec.Points(), Options{Parallel: 1})
		for i := range first {
			if first[i].Err != nil || again[i].Err != nil {
				t.Fatalf("x%d seed %d: first err %v, again err %v", n, spec.Seeds[0], first[i].Err, again[i].Err)
			}
		}
		if d1, d2 := Digest(first), Digest(again); d1 != d2 {
			t.Errorf("x%d seed %d: runs diverge: %s vs %s", n, spec.Seeds[0], d1, d2)
		}
	})
}
