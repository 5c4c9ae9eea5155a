package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"bionicdb/internal/btree"
	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
	"bionicdb/internal/wal"
)

// RecoveryResult is one crash/recovery measurement: the fig-recovery
// experiment runs a workload on a sharded-log machine, crashes it cold at
// the end of the measurement window, then boots a fresh machine and replays
// the shards, serially and in parallel, under the cost model. N log shards
// replay from N devices on N sockets, so parallel recovery is the
// durability subsystem's read-side payoff.
type RecoveryResult struct {
	Sockets    int
	Shards     int
	ShardedLog bool
	Engine     string
	Workload   string

	Commits  int64 // transactions acknowledged before the crash
	LogBytes int64 // durable log bytes replayed (sum over shards)
	Txns     int64 // committed transactions recovered from the log tail
	Records  int64 // data records replayed

	RestoreSim     sim.Duration // checkpoint-image scan (shared device, serial)
	SerialReplay   sim.Duration // log replay, one process walking all shards
	ParallelReplay sim.Duration // log replay, one process per shard
	TotalSim       sim.Duration // the parallel boot end to end
	Joules         float64      // energy of the parallel recovery boot
	Rows           int64        // rows in the recovered tables

	Err error
}

// checkpointable is the engine surface the crash harness needs. TableSets
// is the socket-indexed checkpoint surface: one set per socket on an
// engine-sharded machine, a single-element slice otherwise.
type checkpointable interface {
	core.Engine
	TableSets() []map[uint16]*btree.Tree
	DiskManager() *storage.DiskManager
	LogSet() *wal.LogSet
}

// crashRun is a machine the crash harness stopped cold.
type crashRun struct {
	env   *sim.Env
	eng   core.Engine
	ck    checkpointable
	wl    core.Workload
	meta  core.CheckpointMeta
	start sim.Time // the instant the terminals opened
}

// crash is the crash phase every crash experiment shares: build the
// point's engine, populate, warm, checkpoint sharp, open p.Terminals
// closed-loop terminals and stop the world mid-flight at the instant arm
// returns. No drain, no Close — staged and buffered log bytes die with the
// machine; only the stores' durable bytes survive. arm runs after the
// checkpoint, before any terminal exists, with the point's random root, so
// a stream it splits sits between the population and terminal streams.
// The caller closes c.env.
func crash(p Point, arm func(c *crashRun, root *sim.Rand) (sim.Time, error)) (*crashRun, error) {
	c := &crashRun{env: sim.NewEnv(), wl: p.Workload.Make()}
	c.eng = p.Engine.Make(c.env, c.wl)
	ck, ok := c.eng.(checkpointable)
	if !ok {
		return c, fmt.Errorf("engine %s is not checkpointable", p.Engine.Name)
	}
	c.ck = ck
	root := sim.NewRand(p.Seed)
	c.wl.Populate(c.eng.Load, root.Split())
	if warmer, ok := c.eng.(interface{ Warm() }); ok {
		warmer.Warm()
	}
	// Checkpoint sharp before any terminal exists. The checkpoint's
	// simulated duration is not known up front, and engine daemons tick
	// forever (an unbounded Run would never return), so the host steps the
	// environment in adaptive chunks until the checkpointer reports done:
	// chunks double while no event lands inside one (RunUntil never
	// advances the clock past the last executed event) and reset once
	// progress resumes. Only idle daemons share the clock with the
	// checkpointer here, so overshooting its completion instant is free.
	ckDone := false
	sets := ck.TableSets()
	shardedEng := len(sets) > 1
	if shardedEng {
		// Engine-on-shard machine: no single process may walk every socket's
		// trees, so capture the image host-side right here — the kernel has
		// not started, which is the strongest barrier there is — and charge
		// the captured spans to the (shard-0) checkpoint device from a
		// shard-0 process.
		var spans []int
		c.meta, spans = core.CheckpointAllSetsHost(sets, ck.DiskManager(), ck.LogSet())
		c.env.SpawnOn(0, "checkpointer", func(p *sim.Proc) {
			for _, span := range spans {
				ck.DiskManager().Device().Transfer(p, span)
			}
			ckDone = true
		})
	} else {
		c.env.Spawn("checkpointer", func(p *sim.Proc) {
			c.meta = core.CheckpointAllSets(p, sets, ck.DiskManager(), ck.LogSet())
			ckDone = true
		})
	}
	step := sim.Time(1 * sim.Millisecond)
	for !ckDone {
		before := c.env.Executed()
		if err := c.env.RunUntil(c.env.Now() + step); err != nil {
			return c, err
		}
		if c.env.Executed() == before {
			step *= 2
		} else {
			step = sim.Time(1 * sim.Millisecond)
		}
	}
	c.start = c.env.Now()
	stop, err := arm(c, root)
	if err != nil {
		return c, err
	}
	pl := c.eng.Platform()
	for i := 0; i < p.Terminals; i++ {
		i := i
		tr := root.Split()
		tcore := pl.Cores[i%len(pl.Cores)]
		body := func(tp *sim.Proc) {
			term := &core.Terminal{ID: i, P: tp, Core: tcore, R: tr}
			for {
				_, logic := c.wl.NextTxn(term.R)
				c.eng.Submit(term, logic)
			}
		}
		if shardedEng {
			c.env.SpawnOn(pl.ShardOfCore(tcore), fmt.Sprintf("terminal%d", i), body)
		} else {
			c.env.Spawn(fmt.Sprintf("terminal%d", i), body)
		}
	}
	return c, c.env.RunUntil(stop)
}

// RunRecovery runs every point of the spec as a crash experiment; see
// RunRecovery.
func (s Spec) RunRecovery(opt Options) []RecoveryResult { return RunRecovery(s.Points(), opt) }

// RunRecovery runs each point as a crash experiment — the crash at the end
// of its measurement window, then both recovery boots — fanning points out
// across the worker pool. Every point runs in private environments, so
// parallel execution is bit-identical to serial. The engines must be
// checkpointable; Obs is ignored (the crash phase has no window to trace).
func RunRecovery(points []Point, opt Options) []RecoveryResult {
	out := make([]RecoveryResult, len(points))
	opt.each(points, func(i int, p Point) Result {
		out[i] = runRecoveryPoint(p)
		return Result{Point: p, Err: out[i].Err}
	})
	return out
}

// runRecoveryPoint is one crash + two recovery boots.
func runRecoveryPoint(p Point) RecoveryResult {
	res := RecoveryResult{Engine: p.Engine.Name, Workload: p.Workload.Name}
	c, err := crash(p, func(c *crashRun, _ *sim.Rand) (sim.Time, error) {
		return c.start.Add(p.Warmup).Add(p.Measure), nil
	})
	defer c.env.Close()
	cfg := c.eng.Platform().Cfg
	res.Sockets, res.ShardedLog = cfg.NumSockets(), cfg.ShardedLog()
	if err != nil {
		res.Err = err
		return res
	}
	res.Commits = c.eng.Counters().Get("commits")
	logs := c.ck.LogSet().Datas()
	res.Shards = len(logs)
	defs := c.wl.Tables()

	// --- Recovery boots: serial then parallel, each on a fresh machine.
	boot := func(parallel bool) (core.RecoveryStats, *platform.Platform, []map[uint16]*btree.Tree, error) {
		env2 := sim.NewEnv()
		defer env2.Close()
		pl2 := platform.New(env2, cfg)
		dm2 := c.ck.DiskManager().Rebind(pl2.Disk)
		var st core.RecoveryStats
		var recovered []map[uint16]*btree.Tree
		var err error
		env2.Spawn("recovery", func(p *sim.Proc) {
			recovered, st, err = core.RecoverMeasured(p, pl2, defs, c.meta, dm2, logs, parallel)
		})
		if runErr := env2.Run(); runErr != nil {
			return st, pl2, nil, runErr
		}
		return st, pl2, recovered, err
	}

	serial, _, serialSets, err := boot(false)
	if err != nil {
		res.Err = err
		return res
	}
	par, pl2, parSets, err := boot(true)
	if err != nil {
		res.Err = err
		return res
	}
	if d1, d2 := core.ContentDigestSets(serialSets), core.ContentDigestSets(parSets); d1 != d2 {
		res.Err = fmt.Errorf("serial and parallel replay diverged: %s vs %s", d1, d2)
		return res
	}
	res.LogBytes = par.LogBytes
	res.Txns = par.Txns
	res.Records = par.Records
	res.RestoreSim = par.Restore
	res.SerialReplay = serial.Replay
	res.ParallelReplay = par.Replay
	res.TotalSim = par.SimTime
	res.Joules = pl2.Energy(platform.Snapshot{}, pl2.Snapshot()).Total()
	for _, set := range parSets {
		for _, tree := range set {
			res.Rows += int64(tree.Size())
		}
	}
	return res
}

// RecoveryTable renders recovery results as the fig-recovery table. The
// replay speedup column is serial over parallel replay — the restore scan
// is a shared-device floor both boots pay identically.
func RecoveryTable(results []RecoveryResult) *stats.Table {
	t := stats.NewTable("workload", "engine", "log", ">sockets", ">shards",
		">log KB", ">txns", ">restore", ">ser replay", ">par replay", ">speedup", ">total", ">mJ", ">rows")
	for _, r := range results {
		if r.Err != nil {
			t.Row(r.Workload, r.Engine, logLabel(r.ShardedLog), fmt.Sprintf("%d", r.Sockets),
				"error: "+r.Err.Error(), "", "", "", "", "", "", "", "", "")
			continue
		}
		speedup := 0.0
		if r.ParallelReplay > 0 {
			speedup = float64(r.SerialReplay) / float64(r.ParallelReplay)
		}
		t.Row(r.Workload, r.Engine, logLabel(r.ShardedLog),
			fmt.Sprintf("%d", r.Sockets),
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%.0f", float64(r.LogBytes)/1024),
			fmt.Sprintf("%d", r.Txns),
			r.RestoreSim.String(),
			r.SerialReplay.String(),
			r.ParallelReplay.String(),
			fmt.Sprintf("%.2fx", speedup),
			r.TotalSim.String(),
			fmt.Sprintf("%.3f", r.Joules*1e3),
			fmt.Sprintf("%d", r.Rows))
	}
	return t
}

// recoveryJSON is the flat per-point record of the recovery JSON document.
type recoveryJSON struct {
	Name             string  `json:"name"`
	Workload         string  `json:"workload"`
	Engine           string  `json:"engine"`
	Sockets          int     `json:"sockets"`
	Shards           int     `json:"shards"`
	ShardedLog       bool    `json:"sharded_log"`
	Commits          int64   `json:"commits_before_crash"`
	LogBytes         int64   `json:"log_bytes"`
	Txns             int64   `json:"txns_recovered"`
	Records          int64   `json:"records_replayed"`
	RestoreUs        float64 `json:"restore_us"`
	SerialReplayUs   float64 `json:"serial_replay_us"`
	ParallelReplayUs float64 `json:"parallel_replay_us"`
	TotalUs          float64 `json:"total_us"`
	Joules           float64 `json:"joules"`
	Rows             int64   `json:"rows"`
	Error            string  `json:"error,omitempty"`
}

// RecoveryJSON marshals recovery results as an indented
// BENCH_recovery.json-style document.
func RecoveryJSON(results []RecoveryResult) ([]byte, error) {
	doc := struct {
		Suite   string         `json:"suite"`
		Results []recoveryJSON `json:"results"`
	}{Suite: "bionicbench-recovery"}
	for _, r := range results {
		jr := recoveryJSON{
			Name:             fmt.Sprintf("fig-recovery/%s/%s/x%d", r.Workload, r.Engine, r.Sockets),
			Workload:         r.Workload,
			Engine:           r.Engine,
			Sockets:          r.Sockets,
			Shards:           r.Shards,
			ShardedLog:       r.ShardedLog,
			Commits:          r.Commits,
			LogBytes:         r.LogBytes,
			Txns:             r.Txns,
			Records:          r.Records,
			RestoreUs:        r.RestoreSim.Microseconds(),
			SerialReplayUs:   r.SerialReplay.Microseconds(),
			ParallelReplayUs: r.ParallelReplay.Microseconds(),
			TotalUs:          r.TotalSim.Microseconds(),
			Joules:           r.Joules,
			Rows:             r.Rows,
		}
		if r.ShardedLog {
			jr.Name += "/slog"
		}
		if r.Err != nil {
			jr.Error = r.Err.Error()
		}
		doc.Results = append(doc.Results, jr)
	}
	return json.MarshalIndent(doc, "", "  ")
}

// WriteRecoveryJSONFile writes the recovery document to path.
func WriteRecoveryJSONFile(path string, results []RecoveryResult) error {
	b, err := RecoveryJSON(results)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
