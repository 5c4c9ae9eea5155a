// Package bench is the experiment subsystem: one declarative Spec — the
// cross product workload x sockets x engine x terminals x seed — expands
// into measurement points and fans them out across a worker pool. Every
// point runs in its own sim.Env, so a parallel sweep is bit-identical to
// the same spec run serially — the pool changes wall-clock time, never
// results. The same points drive the crash experiments (Spec.RunRecovery,
// and FailoverSpec, which builds its points through Spec); every figure of
// cmd/bionicbench is a preset over it. Results render as tables
// (stats.Table) or structured JSON (emit.go).
package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bionicdb/internal/core"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// EngineSpec names one engine constructor in the grid. Make is called once
// per run with that run's private environment and workload; it must build
// everything (including the platform config) fresh so runs share no state.
type EngineSpec struct {
	Name string
	Make func(env *sim.Env, wl core.Workload) core.Engine
}

// Conventional returns the shared-everything 2PL baseline spec.
func Conventional() EngineSpec { return ConventionalOn(platform.HC2()) }

// ConventionalOn returns the 2PL baseline spec on a specific platform
// configuration (the scaling sweep passes multi-socket configs). cfg is
// read-only after construction, so one config may back many grid points.
func ConventionalOn(cfg *platform.Config) EngineSpec {
	return EngineSpec{Name: "conventional", Make: func(env *sim.Env, wl core.Workload) core.Engine {
		return core.NewConventional(env, cfg, wl.Tables())
	}}
}

// DORA returns the software data-oriented engine spec.
func DORA(partitions int) EngineSpec { return DORAOn(platform.HC2(), partitions) }

// DORAOn returns the DORA spec on a specific platform configuration.
func DORAOn(cfg *platform.Config, partitions int) EngineSpec {
	return EngineSpec{Name: "dora", Make: func(env *sim.Env, wl core.Workload) core.Engine {
		return core.NewDORA(env, cfg, wl.Tables(), wl.Scheme(partitions))
	}}
}

// Bionic returns a bionic engine spec with the given offload subset and
// in-flight window.
func Bionic(partitions int, off core.Offloads, window int) EngineSpec {
	return BionicOn(platform.HC2(), partitions, off, window)
}

// BionicOn returns the bionic spec on a specific platform configuration.
func BionicOn(cfg *platform.Config, partitions int, off core.Offloads, window int) EngineSpec {
	return EngineSpec{Name: "bionic[" + off.String() + "]", Make: func(env *sim.Env, wl core.Workload) core.Engine {
		return core.NewBionic(env, cfg, wl.Tables(), wl.Scheme(partitions), off, window)
	}}
}

// WorkloadSpec names one workload constructor in the grid. Make is called
// once per run so every run owns a private workload instance (workload
// state like TPC-C's partition memo must not be shared across the pool).
type WorkloadSpec struct {
	Name string
	Make func() core.Workload
}

// ScalingEngine is one entry of a spec's engine axis: On builds the engine
// spec for the machine the spec built, its total partition count and the
// bionic window. A set Name names the curve in tables ("bionic", not the
// offload list); an empty one keeps the built spec's own name.
type ScalingEngine struct {
	Name string
	On   func(cfg *platform.Config, partitions, window int) EngineSpec
}

// Fixed lifts ready-built engine specs onto the engine axis: the
// degenerate On, which ignores the machine the spec builds because each
// spec carries its own. Use it on an empty socket axis, where points carry
// no machine annotation beyond the spec's Repl.
func Fixed(specs ...EngineSpec) []ScalingEngine {
	out := make([]ScalingEngine, len(specs))
	for i, spec := range specs {
		spec := spec
		out[i] = ScalingEngine{On: func(*platform.Config, int, int) EngineSpec { return spec }}
	}
	return out
}

// DefaultScalingEngines returns the standard engine axis: conventional,
// DORA and the fully-offloaded bionic engine.
func DefaultScalingEngines() []ScalingEngine {
	return []ScalingEngine{
		{Name: "conventional", On: func(cfg *platform.Config, partitions, window int) EngineSpec {
			return ConventionalOn(cfg)
		}},
		{Name: "dora", On: func(cfg *platform.Config, partitions, window int) EngineSpec {
			return DORAOn(cfg, partitions)
		}},
		{Name: "bionic", On: func(cfg *platform.Config, partitions, window int) EngineSpec {
			return BionicOn(cfg, partitions, core.AllOffloads(), window)
		}},
	}
}

// DefaultScalingSockets is the 1 -> 16 socket axis of the fig-scaling
// figure.
func DefaultScalingSockets() []int { return []int{1, 2, 4, 8, 16} }

// Defaults shared by every spec (FailoverSpec resolves through Spec too).
const (
	defaultTerminals = 32 // closed-loop clients per socket
	defaultWindow    = 8  // bionic in-flight window
	defaultReplicas  = 2  // replica machines: sync waits both, quorum one
)

// Spec declares an experiment: the cross product workload x sockets x
// engine x terminals x seed, expanded in that order (workload outermost),
// so each workload's curves print together, engine by engine. Zero fields
// get defaults, so only the axes under study need declaring. Every point
// inherits HTAP, Obs and the windows by construction, and its Sockets,
// ShardedLog and Repl annotations are read off the machine built for it.
//
// With a socket axis this is weak scaling — load and partitions grow with
// the machine — so a perfectly scalable engine shows throughput
// proportional to sockets at flat joules/txn, while a centralized engine
// flattens as the interconnect and its shared structures saturate.
type Spec struct {
	// Group names the experiment; it prefixes JSON result names so points
	// from different experiments stay distinguishable when one invocation
	// collects several.
	Group     string
	Workloads []WorkloadSpec

	// Sockets is the socket axis: one platform.HC2Scaled(n) machine per
	// entry, each point annotated with n. Empty means a single one-socket
	// machine and unannotated points.
	Sockets []int
	// Engines is the engine axis, instantiated per machine with one
	// partition per core (default DefaultScalingEngines).
	Engines []ScalingEngine
	// Terminals is the terminal axis in closed-loop clients per socket
	// (default 32).
	Terminals []int
	// Window is the bionic in-flight window (default 8).
	Window int
	// ShardedLog gives every machine per-socket log devices (the sharded
	// durability subsystem). One-socket machines are structurally
	// unaffected, so their points stay unannotated and bit-identical to the
	// central-log ones, anchoring the speedup column.
	ShardedLog bool
	// Repl ships every machine's log to two replica machines under this
	// mode (default ReplNone: no replication machinery is built).
	Repl stats.ReplMode
	// HTAP attaches each workload as its run's analytical half (see
	// Point.HTAP).
	HTAP bool
	// Obs attaches the flight recorder to every point (see
	// core.RunConfig.Obs). Strictly out-of-band: digests are bit-identical
	// with it on or off, which the observability equivalence test pins.
	Obs *obs.Options

	Seeds   []uint64
	Warmup  sim.Duration
	Measure sim.Duration
}

// withDefaults returns the spec with every zero field defaulted.
func (s Spec) withDefaults() Spec {
	def := core.DefaultRunConfig()
	if len(s.Engines) == 0 {
		s.Engines = DefaultScalingEngines()
	}
	if len(s.Terminals) == 0 {
		s.Terminals = []int{defaultTerminals}
	}
	if s.Window <= 0 {
		s.Window = defaultWindow
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{def.Seed}
	}
	if s.Warmup <= 0 {
		s.Warmup = def.Warmup
	}
	if s.Measure <= 0 {
		s.Measure = def.Measure
	}
	return s
}

// machine builds the n-socket HC2 a point runs on, log-sharded and
// replicated as asked (ReplNone builds no replication machinery).
func machine(n int, sharded bool, repl stats.ReplMode, replicas int) *platform.Config {
	cfg := platform.HC2Scaled(n)
	cfg.LogDevPerSocket = sharded
	if repl != stats.ReplNone {
		cfg.Replicas = replicas
		cfg.ReplMode = repl
	}
	return cfg
}

// Points expands the spec in deterministic order: workload, sockets,
// engine, terminals, seed.
func (s Spec) Points() []Point { return s.expand(defaultReplicas) }

// expand is Points with the replica count of replicated machines.
func (s Spec) expand(replicas int) []Point {
	s = s.withDefaults()
	sockets := s.Sockets
	if len(sockets) == 0 {
		sockets = []int{0} // the single unannotated machine
	}
	var out []Point
	for _, wl := range s.Workloads {
		for _, n := range sockets {
			cfg := machine(max(n, 1), s.ShardedLog, s.Repl, replicas)
			for _, eng := range s.Engines {
				spec := eng.On(cfg, cfg.TotalCores(), s.Window)
				if eng.Name != "" {
					spec.Name = eng.Name
				}
				for _, t := range s.Terminals {
					for _, seed := range s.Seeds {
						p := Point{
							Index: len(out), Group: s.Group, Engine: spec, Workload: wl,
							Terminals: t * cfg.NumSockets(), Seed: seed, HTAP: s.HTAP, Obs: s.Obs,
							Warmup: s.Warmup, Measure: s.Measure,
						}
						if n > 0 {
							p.Sockets, p.ShardedLog = n, cfg.ShardedLog()
						}
						if cfg.Replicated() {
							p.Repl = cfg.ReplMode
						}
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

// Run executes the whole spec; see Run.
func (s Spec) Run(opt Options) []Result { return Run(s.Points(), opt) }

// Point is one expanded measurement: a fully-specified core.Run.
type Point struct {
	Index     int    // position in the expanded grid
	Group     string // owning experiment (may be empty)
	Engine    EngineSpec
	Workload  WorkloadSpec
	Terminals int
	Seed      uint64

	// Sockets annotates the platform socket count the engine spec was
	// built for (0 = unannotated single-socket points). It is reporting
	// metadata: the socket count itself lives in the platform config
	// captured by Engine.Make.
	Sockets int

	// ShardedLog annotates that the engine spec was built on a machine
	// with per-socket log devices (the sharded durability subsystem).
	// Reporting metadata like Sockets.
	ShardedLog bool

	// HTAP attaches the workload as the run's analytical half (the
	// workload must implement core.Analytics — the htap mixed workloads
	// do). Plain OLTP points leave it false and run exactly as before.
	HTAP bool

	// Repl annotates the log-replication mode the engine spec was built
	// with (stats.ReplNone = unreplicated). Reporting metadata like
	// Sockets.
	Repl stats.ReplMode

	// KernelParallel is ignored. It once ran the point's windows on host
	// goroutines; the event kernel now has one executor, so the field only
	// keeps older callers compiling and will be removed.
	KernelParallel bool

	// Obs attaches the flight recorder to this run (see core.RunConfig.Obs).
	// Out-of-band: every simulated field of the result is bit-identical with
	// it on or off.
	Obs *obs.Options

	Warmup  sim.Duration
	Measure sim.Duration
}

// Result is one point's outcome: the point that produced it, the
// measurement (nil on error) and the host wall-clock the run took.
type Result struct {
	Point Point
	Res   *core.Result
	Err   error
	Wall  time.Duration
}

// Run executes one point in a fresh environment.
func (p Point) Run() Result {
	wl := p.Workload.Make()
	cfg := core.RunConfig{
		Terminals: p.Terminals,
		Warmup:    p.Warmup,
		Measure:   p.Measure,
		Seed:      p.Seed,
		Obs:       p.Obs,
	}
	if p.HTAP {
		if a, ok := wl.(core.Analytics); ok {
			cfg.Analytics = a
		}
	}
	start := time.Now()
	res, err := core.Run(cfg, wl, func(env *sim.Env) core.Engine {
		return p.Engine.Make(env, wl)
	})
	return Result{Point: p, Res: res, Err: err, Wall: time.Since(start)}
}

// Options shapes a sweep execution.
type Options struct {
	// Parallel is the worker-pool size; <= 0 uses GOMAXPROCS.
	Parallel int
	// OnResult, when set, observes each result as it completes (calls are
	// serialized but arrive in completion order, not grid order).
	OnResult func(Result)
}

// each runs fn for every point across the pool, the point's Index
// rewritten to its slice position so concatenated point lists stay
// addressable, and hands what fn returns to OnResult: the one serialized
// path every runner reports through.
func (opt Options) each(points []Point, fn func(i int, p Point) Result) {
	var mu sync.Mutex
	ForEach(len(points), opt.Parallel, func(i int) {
		p := points[i]
		p.Index = i
		r := fn(i, p)
		if opt.OnResult != nil {
			mu.Lock()
			defer mu.Unlock()
			opt.OnResult(r)
		}
	})
}

// Run fans the points out across the pool and returns results in grid
// order.
func Run(points []Point, opt Options) []Result {
	out := make([]Result, len(points))
	opt.each(points, func(i int, p Point) Result {
		out[i] = p.Run()
		return out[i]
	})
	return out
}

// ForEach runs fn(0..n-1) across a pool of parallel workers (<= 0 uses
// GOMAXPROCS) and returns when all calls complete. It is the primitive
// under Run, exposed for sweeps that are not core.Run-shaped (the probe
// saturation microbenchmark); fn must confine its effects to slot i.
func ForEach(n, parallel int, fn func(i int)) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
