package bench

import (
	"reflect"
	"testing"

	"bionicdb/internal/obs"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// This file is the observability equivalence matrix: the flight recorder
// (span tracing + time-series telemetry) is strictly out-of-band, so every
// pinned golden digest must be bit-identical with it on or off, on serial
// and shaped kernels alike. A recorder that consumed simulated
// time, energy, or a random draw would shift a digest and fail here.

// fullObs returns the everything-on recorder options the matrix runs under.
func fullObs() *obs.Options {
	return &obs.Options{Trace: true, Metrics: true}
}

// withObs returns the points with the recorder options overridden.
func withObs(points []Point, o *obs.Options) []Point {
	out := make([]Point, len(points))
	for i, p := range points {
		p.Obs = o
		out[i] = p
	}
	return out
}

// TestSpecsPropagateObs pins the options plumbing end to end: Point.Run
// hands a Spec point's Obs to the harness, and FailoverSpec carries its Obs
// into every steady-state run (witnessed by the trace and telemetry
// artifacts coming back on the result). TestPointsExpansion and
// TestScalingPointsExpansion pin that every Spec point inherits Obs.
func TestSpecsPropagateObs(t *testing.T) {
	o := fullObs()
	spec := goldenSpec()
	spec.Obs = o
	_, steady := FailoverSpec{
		Sockets: []int{1}, Modes: []stats.ReplMode{stats.ReplNone},
		Workload: func(int) WorkloadSpec { return smallTPCC() }, TerminalsPerSocket: 4, Obs: o,
		Warmup: 1 * sim.Millisecond, Measure: 2 * sim.Millisecond,
	}.RunFailover(Options{Parallel: 1})
	for name, res := range map[string]Result{"spec": spec.Points()[0].Run(), "failover": steady[0]} {
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		if res.Point.Obs != o {
			t.Errorf("%s: point dropped Obs", name)
		}
		if res.Res.Trace == nil || len(res.Res.Trace.Merged()) == 0 {
			t.Errorf("%s: traced run returned no spans", name)
		}
		if res.Res.Metrics == nil || len(res.Res.Metrics.Samples()) == 0 {
			t.Errorf("%s: sampled run returned no telemetry", name)
		}
		if res.Res.Anatomy.Samples() == 0 {
			t.Errorf("%s: run recorded no latency anatomy", name)
		}
	}
}

// TestObsEquivalenceMatrix asserts every pinned golden digest — the quick
// grid, the multi-socket scaling sweep, the hybrid sweep and the
// engine-on-shard sweep — is reproduced bit for bit with tracing and
// telemetry enabled, on both the serial and a shaped kernel (see
// shapedEngine). The
// recorder artifacts must also be non-empty, so a silently detached
// recorder cannot pass as zero perturbation.
func TestObsEquivalenceMatrix(t *testing.T) {
	quick := goldenSpec()
	families := []struct {
		name   string
		points []Point
		golden string
	}{
		{"fig3-fig4-quick", quick.Points(), goldenDigest},
		{"scaling-golden", goldenScalingSpec().Points(), goldenScalingDigest},
		{"htap-golden", goldenHTAPSpec().Points(), goldenHTAPDigest},
		{"engine-shard", engineShardSpec([]int{2, 4, 8}).Points(), engineShardGoldenDigest},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			for _, kernel := range []struct {
				name   string
				points []Point
			}{{"serial", fam.points}, {"shaped", withShape(fam.points)}} {
				points := withObs(kernel.points, fullObs())
				results := mustRun(t, fam.name+"/"+kernel.name, points, Options{Parallel: 4})
				if got := Digest(results); got != fam.golden {
					t.Errorf("%s kernel with recorder on diverged from golden:\n got  %s\n want %s",
						kernel.name, got, fam.golden)
				}
				for _, r := range results {
					if r.Res.Trace == nil || len(r.Res.Trace.Merged()) == 0 {
						t.Errorf("%s/%s x%d: traced run returned no spans",
							r.Point.Workload.Name, r.Point.Engine.Name, r.Point.Sockets)
					}
					if r.Res.Metrics == nil || len(r.Res.Metrics.Samples()) == 0 {
						t.Errorf("%s/%s x%d: sampled run returned no telemetry",
							r.Point.Workload.Name, r.Point.Engine.Name, r.Point.Sockets)
					}
				}
			}
		})
	}
}

// TestObsEquivalenceFailover asserts the replication/failover family is
// untouched by the recorder: the full per-point failover measurements are
// DeepEqual and the steady-state digests identical with it on vs off.
func TestObsEquivalenceFailover(t *testing.T) {
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
	offFo, offSteady := spec.RunFailover(Options{Parallel: 2})
	spec.Obs = fullObs()
	onFo, onSteady := spec.RunFailover(Options{Parallel: 2})
	for i := range offFo {
		if offFo[i].Err != nil || onFo[i].Err != nil {
			t.Fatalf("x%d/%v: off err %v, on err %v",
				offFo[i].Sockets, offFo[i].Mode, offFo[i].Err, onFo[i].Err)
		}
	}
	if !reflect.DeepEqual(offFo, onFo) {
		t.Errorf("failover results diverge with the recorder on:\noff %+v\non  %+v", offFo, onFo)
	}
	if doff, don := Digest(offSteady), Digest(onSteady); doff != don {
		t.Errorf("steady-state digests diverge with the recorder on: off %s vs on %s", doff, don)
	}
}
