package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bionicdb/internal/bench"
	"bionicdb/internal/core"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/workload/htap"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

// engines is the engine axis every workload runs, in report order, so the
// sim_*.<engine> metrics are defined on every workload.
var engines = []string{"conventional", "dora", "bionic"}

// pointDef is one simulation point: one engine on one machine under one
// workload. The JSON form is the point's full definition in result files.
type pointDef struct {
	Engine         string  `json:"engine"`
	Sockets        int     `json:"sockets"`
	ShardedLog     bool    `json:"sharded_log"`
	Replicas       int     `json:"replicas,omitempty"`
	Replication    string  `json:"replication,omitempty"`
	Terminals      int     `json:"terminals"`
	Partitions     int     `json:"partitions,omitempty"`
	Window         int     `json:"window,omitempty"`
	KernelParallel bool    `json:"kernel_parallel"`
	HTAP           bool    `json:"htap,omitempty"`
	Failover       bool    `json:"failover,omitempty"`
	WarmupMs       float64 `json:"warmup_ms"`
	MeasureMs      float64 `json:"measure_ms"`
	PlatformDigest string  `json:"platform_digest"`
	// Runs is how many of the workload's simulation seeds this point runs
	// under, from the first.
	Runs int    `json:"runs"`
	Note string `json:"note,omitempty"`

	cfg *platform.Config
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	Name     string       `json:"name"`
	Workload string       `json:"workload"`
	TPCC     *tpcc.Config `json:"tpcc,omitempty"`
	YCSB     *ycsb.Config `json:"ycsb,omitempty"`
	Points   []pointDef   `json:"points"`
	Seed     uint64       `json:"seed"`
	// Seeds are the simulation seeds the points run under; a point runs
	// under the first Runs of them and its engine's results pool over those.
	Seeds []uint64 `json:"sim_seeds"`
}

// machine returns the HC2 platform scaled to sockets, with per-socket log
// devices when sharded and log shipping when replicas > 0.
func machine(sockets int, sharded bool, replicas int, mode stats.ReplMode) *platform.Config {
	cfg := platform.HC2Scaled(sockets)
	cfg.LogDevPerSocket = sharded
	if replicas > 0 {
		cfg.Replicas = replicas
		cfg.ReplMode = mode
	}
	return cfg
}

// newPoint fills a point's machine-derived fields.
func newPoint(engine string, cfg *platform.Config, terminals, window int, warmup, measure sim.Duration) pointDef {
	p := pointDef{
		Engine: engine, Sockets: cfg.NumSockets(), ShardedLog: cfg.ShardedLog(),
		Terminals: terminals, WarmupMs: warmup.Seconds() * 1e3, MeasureMs: measure.Seconds() * 1e3, cfg: cfg,
	}
	if engine != "conventional" {
		p.Partitions = cfg.TotalCores()
	}
	if engine == "bionic" {
		p.Window = window
	}
	if cfg.Replicated() {
		p.Replicas, p.Replication = cfg.Replicas, cfg.ReplMode.String()
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("platform config does not marshal: %v", err))
	}
	p.PlatformDigest = fmt.Sprintf("%x", sha256.Sum256(b))[:16]
	return p
}

func (p pointDef) warmup() sim.Duration  { return sim.Duration(p.WarmupMs * float64(sim.Millisecond)) }
func (p pointDef) measure() sim.Duration { return sim.Duration(p.MeasureMs * float64(sim.Millisecond)) }

// The TPC-C database of the TPC-C-backed workloads: spec ratios for
// districts, with the customer and item tables trimmed so one population
// costs a fraction of a second of host time.
func tpccConfig(warehouses int) tpcc.Config {
	return tpcc.Config{Warehouses: warehouses, Districts: 10, CustomersPerDistrict: 600, Items: 20000, InitialOrdersPerDistrict: 100}
}

// subSeeds returns n simulation seeds for a workload seed: the seed itself,
// then seeds spaced 2^32 apart, so the seeds of distinct workload seeds
// never coincide.
func subSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = seed + uint64(i)<<32
	}
	return out
}

// defineWorkload returns the named workload's points for seed.
func defineWorkload(name string, seed uint64) (workloadDef, error) {
	ms := sim.Millisecond
	w := workloadDef{Name: name, Seed: seed}
	// runs is each engine's simulation-seed count. One short TPC-C window's
	// throughput swings widely from seed to seed (lock convoys come and go
	// within milliseconds), so the TPC-C workloads pool several windows.
	var runs map[string]int
	same := func(k int) map[string]int { return map[string]int{"conventional": k, "dora": k, "bionic": k} }
	switch name {
	case "paper-1s":
		// Figure 4: the paper's one-socket HC2 machine, serial kernel.
		// Conventional 2PL spends its first ~15ms in convoys that come and
		// go (a 3ms-warmup window reads anywhere from 20k to 74k tps), so it
		// warms up for 20ms and measures longer; the DORA engines settle
		// within a few milliseconds.
		c := tpccConfig(4)
		w.Workload, w.TPCC = "tpcc", &c
		runs = map[string]int{"conventional": 2, "dora": 3, "bionic": 3}
		cfg := machine(1, false, 0, stats.ReplNone)
		w.Points = []pointDef{
			newPoint("conventional", cfg, 64, 8, 20*ms, 45*ms),
			newPoint("dora", cfg, 64, 8, 5*ms, 15*ms),
			newPoint("bionic", cfg, 64, 8, 5*ms, 15*ms),
		}
	case "scaleout-8s":
		// YCSB A on 8 sockets with per-socket log shards on the parallel
		// kernel. DORA takes the engine-sharded path; the conventional and
		// bionic engines stay on the classic layout on the same machine.
		c := ycsb.DefaultConfig()
		w.Workload, w.YCSB = "ycsb", &c
		runs = same(1)
		cfg := machine(8, true, 0, stats.ReplNone)
		for _, e := range engines {
			p := newPoint(e, cfg, 8*8, 8, 2*ms, 4*ms)
			p.KernelParallel = true
			w.Points = append(w.Points, p)
		}
	case "htap-2s":
		// HTAP mixed TPC-C: analytical scans beside OLTP writes.
		c := tpccConfig(2)
		w.Workload, w.TPCC = "htap-tpcc", &c
		runs = same(8)
		for _, e := range engines {
			cfg := machine(2, true, 0, stats.ReplNone)
			note := ""
			if e == "dora" {
				// core.Run refuses analytics on the engine-sharded DORA
				// layout, which every sharded-log 2-socket DORA run takes.
				cfg = machine(2, false, 0, stats.ReplNone)
				note = "central log: the engine-sharded DORA layout does not support analytics"
			}
			p := newPoint(e, cfg, 2*16, 8, 3*ms, 20*ms)
			p.HTAP, p.Note = true, note
			w.Points = append(w.Points, p)
		}
	case "failover-2s":
		// TPC-C under quorum replication to 2 replicas, then the seed-drawn
		// fault plan and a primary kill with measured failover.
		c := tpccConfig(2)
		w.Workload, w.TPCC = "tpcc", &c
		runs = same(6)
		cfg := machine(2, true, 2, stats.ReplQuorum)
		for _, e := range engines {
			p := newPoint(e, cfg, 2*16, 8, 3*ms, 20*ms)
			p.Failover = true
			w.Points = append(w.Points, p)
		}
	default:
		return w, fmt.Errorf("unknown workload %q", name)
	}
	n := 0
	for i := range w.Points {
		w.Points[i].Runs = runs[w.Points[i].Engine]
		n = max(n, w.Points[i].Runs)
	}
	w.Seeds = subSeeds(seed, n)
	return w, nil
}

// makeWorkload builds a fresh workload instance of the definition.
func (w *workloadDef) makeWorkload() core.Workload {
	switch w.Workload {
	case "tpcc":
		return tpcc.New(*w.TPCC)
	case "ycsb":
		return ycsb.New(*w.YCSB)
	case "htap-tpcc":
		return htap.NewTPCC(*w.TPCC, htap.DefaultParams())
	}
	panic("unknown workload kind " + w.Workload)
}

// pointRec is what the benchmark observes of one point run from outside the
// program: host time spent in setup (engine construction and Populate), the
// engines and workload instances it built, and, when spans are on, the
// spans around each call into a layer.
type pointRec struct {
	setupNs atomic.Int64
	spans   *spanSet

	mu   sync.Mutex
	engs []core.Engine
	wls  []core.Workload
}

// engineSpec returns the bench spec of p's engine, wrapped so construction
// is timed and the built engine captured for the output checks.
func engineSpec(p pointDef, rec *pointRec) bench.EngineSpec {
	var spec bench.EngineSpec
	switch p.Engine {
	case "conventional":
		spec = bench.ConventionalOn(p.cfg)
	case "dora":
		spec = bench.DORAOn(p.cfg, p.Partitions)
	case "bionic":
		spec = bench.BionicOn(p.cfg, p.Partitions, core.AllOffloads(), p.Window)
	}
	inner := spec.Make
	spec.Make = func(env *sim.Env, wl core.Workload) core.Engine {
		start := time.Now()
		e := inner(env, wl)
		d := time.Since(start)
		rec.setupNs.Add(int64(d))
		rec.spans.add("engine.construct", d, -1)
		rec.mu.Lock()
		rec.engs = append(rec.engs, e)
		rec.mu.Unlock()
		if tw, ok := wl.(interface{ bindEnv(*sim.Env) }); ok {
			tw.bindEnv(env)
		}
		return e
	}
	return spec
}

// timedWorkload wraps a workload so Populate is timed and, when spans are
// on, every transaction program the engine runs is spanned.
type timedWorkload struct {
	core.Workload
	rec *pointRec
	env *sim.Env // the run's environment, for simulated span time
}

func (w *timedWorkload) bindEnv(env *sim.Env) { w.env = env }

func (w *timedWorkload) Populate(load func(table uint16, key, val []byte), r *sim.Rand) {
	start := time.Now()
	w.Workload.Populate(load, r)
	d := time.Since(start)
	w.rec.setupNs.Add(int64(d))
	w.rec.spans.add("workload.populate", d, -1)
}

func (w *timedWorkload) NextTxn(r *sim.Rand) (string, core.TxnLogic) {
	name, logic := w.Workload.NextTxn(r)
	if w.rec.spans == nil {
		return name, logic
	}
	// Simulated time is read from the environment clock only on the serial
	// kernel, where it is the running process's time; parallel-kernel spans
	// carry host time alone.
	env := w.env
	if env != nil && env.Parallel() {
		env = nil
	}
	spans := w.rec.spans
	return name, func(tx core.Tx) bool {
		var simStart sim.Time
		if env != nil {
			simStart = env.Now()
		}
		start := time.Now()
		ok := logic(tx)
		simD := sim.Duration(-1)
		if env != nil {
			simD = env.Now().Sub(simStart)
		}
		spans.add("txn."+name, time.Since(start), simD)
		return ok
	}
}

// htapWorkload is a timedWorkload over an HTAP mix; it keeps the mix's
// analytics attachment visible to the harness.
type htapWorkload struct {
	*timedWorkload
	mixed *htap.Mixed
}

func (w *htapWorkload) Attach(env *sim.Env, eng core.Engine, r *sim.Rand) core.AnalyticsRun {
	return w.mixed.Attach(env, eng, r)
}

// wrapWorkload builds a fresh instance of the workload, wrapped for timing.
func (w *workloadDef) wrapWorkload(rec *pointRec) core.Workload {
	inner := w.makeWorkload()
	tw := &timedWorkload{Workload: inner, rec: rec}
	var out core.Workload = tw
	if m, ok := inner.(*htap.Mixed); ok {
		out = &htapWorkload{timedWorkload: tw, mixed: m}
	}
	rec.mu.Lock()
	rec.wls = append(rec.wls, inner)
	rec.mu.Unlock()
	return out
}

// pointRun is one point's outcome.
type pointRun struct {
	Def      pointDef
	Seed     uint64
	Res      *core.Result // the measured (steady-state) run
	Failover *bench.FailoverResult
	Wall     time.Duration // host time of the whole point
	Setup    time.Duration // host time of engine construction and Populate
	Digest   string
	Err      error
	// Counters are the measured engine's whole-run event counters.
	Counters map[string]int64
	rec      *pointRec
}

// release drops the point's engines, environments and workloads once its
// outputs are checked, so a pass holds only results in memory.
func (r *pointRun) release() {
	if len(r.rec.engs) > 0 {
		cs := r.rec.engs[0].Counters()
		r.Counters = map[string]int64{}
		for _, n := range cs.Names() {
			r.Counters[n] = cs.Get(n)
		}
	}
	r.rec = nil
}

// simWall is the point's host time outside setup.
func (r *pointRun) simWall() time.Duration { return r.Wall - r.Setup }

// runPoint executes one point.
func (w *workloadDef) runPoint(p pointDef, seed uint64, spans *spanSet, obsOpt *obs.Options) *pointRun {
	rec := &pointRec{spans: spans}
	out := &pointRun{Def: p, Seed: seed, rec: rec}
	spec := engineSpec(p, rec)
	wlSpec := bench.WorkloadSpec{Name: w.Workload, Make: func() core.Workload { return w.wrapWorkload(rec) }}
	start := time.Now()
	var br bench.Result
	if p.Failover {
		fs := bench.FailoverSpec{
			Sockets:            []int{p.Sockets},
			Modes:              []stats.ReplMode{p.cfg.ReplMode},
			Replicas:           p.cfg.Replicas,
			Workload:           func(int) bench.WorkloadSpec { return wlSpec },
			Engine:             func(*platform.Config, int, int) bench.EngineSpec { return spec },
			ShardedLog:         p.ShardedLog,
			TerminalsPerSocket: p.Terminals / p.Sockets,
			Window:             p.Window,
			Seed:               seed,
			Obs:                obsOpt,
			Warmup:             p.warmup(),
			Measure:            p.measure(),
		}
		fr, steady := fs.RunFailover(bench.Options{Parallel: 1})
		out.Failover, br = &fr[0], steady[0]
		// The failover boot's phases carry simulated time only; their host
		// time is in the CPU profile, under core.RecoverMeasured.
		spans.add("failover.restore", 0, fr[0].RestoreSim)
		spans.add("failover.replay", 0, fr[0].ReplaySim)
		if br.Err == nil && fr[0].Err != nil {
			br.Err = fr[0].Err
		}
	} else {
		bp := bench.Point{
			Group: "bionicbench-e2e/" + w.Name, Engine: spec, Workload: wlSpec,
			Terminals: p.Terminals, Seed: seed, Sockets: p.Sockets,
			ShardedLog: p.ShardedLog, HTAP: p.HTAP, KernelParallel: p.KernelParallel, Obs: obsOpt,
			Warmup: p.warmup(), Measure: p.measure(),
		}
		br = bp.Run()
	}
	out.Wall = time.Since(start)
	out.Setup = time.Duration(rec.setupNs.Load())
	out.Res, out.Err = br.Res, br.Err
	if out.Err == nil {
		out.Digest = bench.Digest([]bench.Result{br})
		if out.Failover != nil {
			out.Digest += fmt.Sprintf("/failover:%d:%d:%d:%d", out.Failover.CommitsAcked,
				out.Failover.TxnsRecovered, out.Failover.ReplaySim, out.Failover.RestoreSim)
		}
	}
	return out
}
