package bench

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bionicdb/internal/core"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/workload/htap"
	"bionicdb/internal/workload/tatp"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

func smallTATP() WorkloadSpec {
	return WorkloadSpec{Name: "tatp", Make: func() core.Workload {
		return tatp.New(tatp.Config{Subscribers: 1000})
	}}
}

func smallYCSB() WorkloadSpec {
	return WorkloadSpec{Name: "ycsb", Make: func() core.Workload {
		cfg := ycsb.WorkloadA()
		cfg.Records = 2000
		return ycsb.New(cfg)
	}}
}

// smallTPCC matters for determinism coverage: TPC-C transactions span
// partitions, which exercises the rollback/lock-release fan-out paths.
func smallTPCC() WorkloadSpec {
	return WorkloadSpec{Name: "tpcc", Make: func() core.Workload {
		return tpcc.New(tpcc.SmallConfig())
	}}
}

func smallSpec() Spec {
	return Spec{
		Engines:   Fixed(DORA(4), Bionic(4, core.AllOffloads(), 8)),
		Workloads: []WorkloadSpec{smallTATP(), smallYCSB(), smallTPCC()},
		Terminals: []int{8},
		Seeds:     []uint64{1, 2},
		Warmup:    1 * sim.Millisecond,
		Measure:   3 * sim.Millisecond,
	}
}

// probeEngine is an engine axis entry that builds nothing runnable: its
// spec name records the machine, partition count and window it was handed,
// so expansion tests can see what the spec built for each point.
var probeEngine = ScalingEngine{On: func(cfg *platform.Config, partitions, window int) EngineSpec {
	return EngineSpec{Name: fmt.Sprintf("probe[x%d p%d w%d %s r%d]",
		cfg.NumSockets(), partitions, window, cfg.ReplMode, cfg.Replicas)}
}}

// expansionCase is one Spec and the key of every point it must expand to, in
// expansion order.
type expansionCase struct {
	name string
	spec Spec
	want []string
}

// checkExpansion pins how a Spec expands: the axis order (workload, sockets,
// engine, terminals, seed), the Sockets/ShardedLog/HTAP/Repl annotations
// encoded in each case's keys, the default windows, and Obs and Index on
// every point.
func checkExpansion(t *testing.T, cases []expansionCase) {
	t.Helper()
	o := &obs.Options{Trace: true}
	def := core.DefaultRunConfig()
	for _, c := range cases {
		c.spec.Obs = o
		points := c.spec.Points()
		var got []string
		for i, p := range points {
			key := fmt.Sprintf("%s/%s x%d t%d s%d", p.Workload.Name, p.Engine.Name, p.Sockets, p.Terminals, p.Seed)
			if p.ShardedLog {
				key += " slog"
			}
			if p.HTAP {
				key += " htap"
			}
			if p.Repl != stats.ReplNone {
				key += " " + p.Repl.String()
			}
			got = append(got, key)
			if p.Index != i || p.Obs != o {
				t.Errorf("%s: point %d has index %d, obs %p", c.name, i, p.Index, p.Obs)
			}
			if p.Warmup != def.Warmup || p.Measure != def.Measure {
				t.Errorf("%s: point %d windows %v/%v, want the defaults", c.name, i, p.Warmup, p.Measure)
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: expansion\n got  %q\n want %q", c.name, got, c.want)
		}
	}
}

// TestPointsExpansion covers a Spec with an empty socket axis: one machine,
// unannotated points (Sockets == 0, no ShardedLog even when asked for), and
// the window and seed defaults read off the machine built for the point.
func TestPointsExpansion(t *testing.T) {
	checkExpansion(t, []expansionCase{
		{"empty socket axis", Spec{
			Engines: Fixed(Conventional(), DORA(4)), Workloads: []WorkloadSpec{smallTATP(), smallYCSB()},
			Terminals: []int{8}, Seeds: []uint64{1, 2}, ShardedLog: true,
		}, []string{
			"tatp/conventional x0 t8 s1", "tatp/conventional x0 t8 s2", "tatp/dora x0 t8 s1", "tatp/dora x0 t8 s2",
			"ycsb/conventional x0 t8 s1", "ycsb/conventional x0 t8 s2", "ycsb/dora x0 t8 s1", "ycsb/dora x0 t8 s2",
		}},
		{"unreplicated machine", Spec{
			Engines: []ScalingEngine{probeEngine}, Workloads: []WorkloadSpec{smallTATP()}, Window: 2,
		}, []string{"tatp/probe[x1 p8 w2 none r0] x0 t32 s42"}},
	})
}

// TestScalingPointsExpansion covers a Spec with a socket axis: terminals
// scale per socket, ShardedLog is set only where the machine really shards
// (2+ sockets), the HTAP flag is carried, and Repl, partitions and replicas
// are read off the machine built for the point.
func TestScalingPointsExpansion(t *testing.T) {
	checkExpansion(t, []expansionCase{
		{"socket axis, sharded log", Spec{
			Sockets: []int{1, 2}, Engines: DefaultScalingEngines()[:2], Workloads: []WorkloadSpec{smallTATP(), smallYCSB()},
			Terminals: []int{4, 8}, Seeds: []uint64{7}, ShardedLog: true,
		}, []string{
			"tatp/conventional x1 t4 s7", "tatp/conventional x1 t8 s7", "tatp/dora x1 t4 s7", "tatp/dora x1 t8 s7",
			"tatp/conventional x2 t8 s7 slog", "tatp/conventional x2 t16 s7 slog", "tatp/dora x2 t8 s7 slog", "tatp/dora x2 t16 s7 slog",
			"ycsb/conventional x1 t4 s7", "ycsb/conventional x1 t8 s7", "ycsb/dora x1 t4 s7", "ycsb/dora x1 t8 s7",
			"ycsb/conventional x2 t8 s7 slog", "ycsb/conventional x2 t16 s7 slog", "ycsb/dora x2 t8 s7 slog", "ycsb/dora x2 t16 s7 slog",
		}},
		{"htap", Spec{
			Sockets: []int{2}, Engines: HTAPEngines(), Workloads: []WorkloadSpec{smallHTAPYCSB()},
			Terminals: []int{4}, Seeds: []uint64{1}, HTAP: true,
		}, []string{"htap-ycsb/conventional x2 t8 s1 htap", "htap-ycsb/bionic x2 t8 s1 htap"}},
		{"replicated, defaults", Spec{
			Sockets: []int{1, 4}, Engines: []ScalingEngine{probeEngine}, Workloads: []WorkloadSpec{smallTATP()},
			Repl: stats.ReplQuorum,
		}, []string{
			"tatp/probe[x1 p8 w8 quorum r2] x1 t32 s42 quorum",
			"tatp/probe[x4 p32 w8 quorum r2] x4 t128 s42 quorum",
		}},
	})
}

// TestParallelMatchesSerial is the subsystem's core guarantee: a sweep fanned
// out across workers produces bit-identical measurements to the same grid
// run serially, because every point owns its environment, workload and
// random streams.
func TestParallelMatchesSerial(t *testing.T) {
	points := smallSpec().Points()
	serial := Run(points, Options{Parallel: 1})
	par := Run(points, Options{Parallel: 4})
	if len(serial) != len(par) {
		t.Fatalf("result count mismatch: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		s, p := serial[i], par[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("point %d errored: serial=%v parallel=%v", i, s.Err, p.Err)
		}
		if s.Res.Engine != p.Res.Engine || s.Res.Workload != p.Res.Workload {
			t.Fatalf("point %d identity mismatch: %s/%s vs %s/%s",
				i, s.Res.Workload, s.Res.Engine, p.Res.Workload, p.Res.Engine)
		}
		if s.Res.Commits != p.Res.Commits || s.Res.Aborts != p.Res.Aborts {
			t.Errorf("point %d commits/aborts diverge: %d/%d vs %d/%d",
				i, s.Res.Commits, s.Res.Aborts, p.Res.Commits, p.Res.Aborts)
		}
		if s.Res.TPS != p.Res.TPS || s.Res.JoulesPerTxn != p.Res.JoulesPerTxn {
			t.Errorf("point %d tps/energy diverge: %v/%v vs %v/%v",
				i, s.Res.TPS, s.Res.JoulesPerTxn, p.Res.TPS, p.Res.JoulesPerTxn)
		}
		if s.Res.BD != p.Res.BD {
			t.Errorf("point %d component breakdown diverges", i)
		}
		if s.Res.Latency.Percentile(50) != p.Res.Latency.Percentile(50) ||
			s.Res.Latency.Percentile(95) != p.Res.Latency.Percentile(95) {
			t.Errorf("point %d latency percentiles diverge", i)
		}
		if !reflect.DeepEqual(s.Res.TxnCounts, p.Res.TxnCounts) {
			t.Errorf("point %d txn counts diverge: %v vs %v", i, s.Res.TxnCounts, p.Res.TxnCounts)
		}
	}
}

// TestYCSBAllEngines smoke-runs the YCSB workload on every engine through
// a grid and checks each run commits work of every requested kind.
func TestYCSBAllEngines(t *testing.T) {
	cfg := ycsb.Config{Records: 2000, ReadPct: 40, UpdatePct: 30, ScanPct: 15, RMWPct: 15, MaxScanLen: 20}
	g := Spec{
		Engines: Fixed(Conventional(), DORA(4), Bionic(4, core.AllOffloads(), 8)),
		Workloads: []WorkloadSpec{{Name: "ycsb", Make: func() core.Workload {
			return ycsb.New(cfg)
		}}},
		Terminals: []int{8},
		Seeds:     []uint64{7},
		Warmup:    1 * sim.Millisecond,
		Measure:   4 * sim.Millisecond,
	}
	for _, r := range g.Run(Options{Parallel: 2}) {
		if r.Err != nil {
			t.Fatalf("%s failed: %v", r.Point.Engine.Name, r.Err)
		}
		if r.Res.Commits == 0 {
			t.Errorf("%s committed nothing", r.Point.Engine.Name)
		}
		for _, op := range []string{"Read", "Update", "Scan", "ReadModifyWrite"} {
			if r.Res.TxnCounts[op] == 0 {
				t.Errorf("%s ran no %s operations", r.Point.Engine.Name, op)
			}
		}
	}
}

// TestForEach checks the pool covers every index exactly once at any
// parallelism, including degenerate sizes.
func TestForEach(t *testing.T) {
	for _, parallel := range []int{0, 1, 3, 16} {
		const n = 57
		var hits [n]atomic.Int64
		ForEach(n, parallel, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("parallel=%d: index %d executed %d times", parallel, i, got)
			}
		}
	}
	ForEach(0, 4, func(i int) { t.Fatal("fn called for empty range") })
}

// TestJSONEmission checks the document shape and that errors carry through.
func TestJSONEmission(t *testing.T) {
	g := Spec{
		Engines:   Fixed(DORA(4)),
		Workloads: []WorkloadSpec{smallYCSB()},
		Terminals: []int{4},
		Seeds:     []uint64{3},
		Warmup:    1 * sim.Millisecond,
		Measure:   2 * sim.Millisecond,
	}
	results := g.Run(Options{Parallel: 1})
	b, err := JSON(results)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Suite   string `json:"suite"`
		Results []struct {
			Name    string  `json:"name"`
			Engine  string  `json:"engine"`
			TPS     float64 `json:"tps"`
			Commits int64   `json:"commits"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if doc.Suite != "bionicbench" || len(doc.Results) != 1 {
		t.Fatalf("unexpected document: %+v", doc)
	}
	jr := doc.Results[0]
	if jr.Name != "ycsb/dora/t4/s3" || jr.Engine != "dora" {
		t.Errorf("unexpected result identity: %+v", jr)
	}
	if jr.Commits != results[0].Res.Commits || jr.TPS != results[0].Res.TPS {
		t.Errorf("JSON numbers diverge from result: %+v vs %+v", jr, results[0].Res)
	}
}

func smallHTAPYCSB() WorkloadSpec {
	return WorkloadSpec{Name: "htap-ycsb", Make: func() core.Workload {
		cfg := ycsb.WorkloadA()
		cfg.Records = 2000
		return htap.NewYCSB(cfg, htap.DefaultParams())
	}}
}

func smallHTAPTPCC() WorkloadSpec {
	return WorkloadSpec{Name: "htap-tpcc", Make: func() core.Workload {
		return htap.NewTPCC(tpcc.SmallConfig(), htap.DefaultParams())
	}}
}

// TestOnResultSerialized pins the Options contract on every runner:
// OnResult calls are serialized, so a plain counter needs no lock. Each
// call is held open until a second call is inside or a short wait runs
// out, so unserialized calls from two pool workers overlap — caught by the
// overlap witness, and by go test -race on the counter — while serialized
// ones never can.
func TestOnResultSerialized(t *testing.T) {
	calls := 0
	var inside atomic.Int32
	var overlapped atomic.Bool
	var once sync.Once
	met := make(chan struct{})
	opt := Options{Parallel: 2, OnResult: func(Result) {
		if inside.Add(1) > 1 {
			overlapped.Store(true)
			once.Do(func() { close(met) })
		}
		select {
		case <-met:
		case <-time.After(300 * time.Millisecond):
		}
		calls++
		inside.Add(-1)
	}}
	spec := Spec{
		Sockets: []int{1, 2}, Engines: DefaultScalingEngines()[1:2], // dora
		Workloads: []WorkloadSpec{smallYCSB()}, Terminals: []int{4}, ShardedLog: true,
		Warmup: 1 * sim.Millisecond, Measure: 2 * sim.Millisecond,
	}
	runs := spec.Run(opt)
	recs := spec.RunRecovery(opt)
	fos, _ := FailoverSpec{
		Sockets: []int{1}, Modes: []stats.ReplMode{stats.ReplNone, stats.ReplAsync},
		Workload: func(int) WorkloadSpec { return smallTPCC() }, ShardedLog: true, TerminalsPerSocket: 4,
		Warmup: 1 * sim.Millisecond, Measure: 2 * sim.Millisecond,
	}.RunFailover(opt)
	if overlapped.Load() {
		t.Error("OnResult calls overlapped")
	}
	if want := len(runs) + len(recs) + len(fos); calls != want {
		t.Errorf("OnResult called %d times, want %d", calls, want)
	}
}
