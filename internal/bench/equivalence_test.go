package bench

import (
	"reflect"
	"testing"

	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// This file is the kernel equivalence matrix: every experiment family runs
// on the serial kernel and on a shaped one (the window protocol, one shard
// per socket) and must produce bit-identical simulated results. Shaping is
// host-side structure, never a model change — these tests are the contract
// that keeps it that way.

// shapedEngine wraps spec so each run shapes its environment into one
// shard per socket right after the engine is built, as core.Run once did
// for every multi-socket run on request. An engine that does not confine
// itself keeps all its processes on shard 0, so its run exercises the
// window driver, the barrier merge and the shaped clock without any
// cross-shard traffic; engine-sharded DORA has already shaped itself
// identically and is unaffected.
func shapedEngine(spec EngineSpec) EngineSpec {
	build := spec.Make
	spec.Make = func(env *sim.Env, wl core.Workload) core.Engine {
		eng := build(env, wl)
		env.Shape(eng.Platform().KernelShards())
		return eng
	}
	return spec
}

// withShape returns the points with every engine wrapped by shapedEngine.
func withShape(points []Point) []Point {
	out := make([]Point, len(points))
	for i, p := range points {
		p.Engine = shapedEngine(p.Engine)
		out[i] = p
	}
	return out
}

// shapedDORA is the crash experiments' DORA engine, shaped.
func shapedDORA(cfg *platform.Config, partitions, window int) EngineSpec {
	return shapedEngine(DORAOn(cfg, partitions))
}

// mustRun executes points and fails the test on any per-point error.
func mustRun(t *testing.T, name string, points []Point, opt Options) []Result {
	t.Helper()
	results := Run(points, opt)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %s/%s failed: %v", name, r.Point.Workload.Name, r.Point.Engine.Name, r.Err)
		}
	}
	return results
}

// TestKernelEquivalenceMatrix asserts serial kernel == shaped kernel for
// the sweep families (fig3/fig4 quick grid, weak scaling, HTAP) at 1, 2 and
// 4 sockets. Where a family is one of the pinned golden specs, the shaped
// digest is compared against the recorded golden constant directly — the
// serial half of that equality is already pinned by golden_test.go — so the
// goldens are proven bit-identical on shaped environments, not merely
// self-consistent.
func TestKernelEquivalenceMatrix(t *testing.T) {
	scaling124 := goldenScalingSpec()
	scaling124.Sockets = []int{1, 2, 4}
	quick := goldenSpec()
	families := []struct {
		name   string
		points []Point
		golden string // pinned serial digest when the family is a golden spec
	}{
		{"fig3-fig4-quick", quick.Points(), goldenDigest},
		{"scaling-x1x2x4", scaling124.Points(), ""},
		{"scaling-golden", goldenScalingSpec().Points(), goldenScalingDigest},
		{"htap-x1x2x4", goldenHTAPSpec().Points(), goldenHTAPDigest},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			want := fam.golden
			if want == "" {
				want = Digest(mustRun(t, fam.name+"/serial", fam.points, Options{Parallel: 4}))
			}
			shaped := mustRun(t, fam.name+"/shaped", withShape(fam.points), Options{Parallel: 4})
			if got := Digest(shaped); got != want {
				t.Errorf("shaped kernel diverged from serial on %s:\n got  %s\n want %s", fam.name, got, want)
			}
			for _, r := range shaped {
				if r.Res.Events == 0 {
					t.Errorf("%s: %s/%s reported no kernel events", fam.name, r.Point.Workload.Name, r.Point.Engine.Name)
				}
			}
		})
	}
}

// TestKernelEquivalenceRecovery asserts serial kernel == shaped kernel for
// the crash/recovery family at 1, 2 and 4 sockets: the crash image, the
// replayed content, the recovery timings and the energy must all be
// bit-identical.
func TestKernelEquivalenceRecovery(t *testing.T) {
	spec := Spec{
		Sockets:    []int{1, 2, 4},
		Workloads:  []WorkloadSpec{smallYCSB()},
		Engines:    DefaultScalingEngines()[1:2], // dora
		ShardedLog: true,
		Terminals:  []int{4},
		Seeds:      []uint64{42},
		Warmup:     1 * sim.Millisecond,
		Measure:    3 * sim.Millisecond,
	}
	serial := spec.RunRecovery(Options{Parallel: 2})
	spec.Engines = []ScalingEngine{{On: shapedDORA}}
	shaped := spec.RunRecovery(Options{Parallel: 2})
	for i := range serial {
		if serial[i].Err != nil || shaped[i].Err != nil {
			t.Fatalf("x%d: serial err %v, shaped err %v", serial[i].Sockets, serial[i].Err, shaped[i].Err)
		}
	}
	if !reflect.DeepEqual(serial, shaped) {
		t.Errorf("recovery results diverge between kernels:\nserial %+v\nshaped %+v", serial, shaped)
	}
}

// TestKernelEquivalenceFailover asserts serial kernel == shaped kernel for
// the replication/failover family: the fault plan, the kill instant, the
// surviving replica image and the recovered content are all under the
// comparison.
func TestKernelEquivalenceFailover(t *testing.T) {
	spec := FailoverSpec{
		Sockets:            []int{1, 2},
		Modes:              []stats.ReplMode{stats.ReplNone, stats.ReplSync},
		Replicas:           2,
		Workload:           func(sockets int) WorkloadSpec { return smallTPCC() },
		ShardedLog:         true,
		TerminalsPerSocket: 4,
		Seed:               42,
		Warmup:             1 * sim.Millisecond,
		Measure:            3 * sim.Millisecond,
	}
	serialFo, serialSteady := spec.RunFailover(Options{Parallel: 2})
	spec.Engine = shapedDORA
	shapedFo, shapedSteady := spec.RunFailover(Options{Parallel: 2})
	for i := range serialFo {
		if serialFo[i].Err != nil || shapedFo[i].Err != nil {
			t.Fatalf("x%d/%v: serial err %v, shaped err %v",
				serialFo[i].Sockets, serialFo[i].Mode, serialFo[i].Err, shapedFo[i].Err)
		}
	}
	if !reflect.DeepEqual(serialFo, shapedFo) {
		t.Errorf("failover results diverge between kernels:\nserial %+v\nshaped %+v", serialFo, shapedFo)
	}
	if ds, dp := Digest(serialSteady), Digest(shapedSteady); ds != dp {
		t.Errorf("steady-state digests diverge between kernels: serial %s vs shaped %s", ds, dp)
	}
}
