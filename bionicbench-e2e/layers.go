package main

import (
	"fmt"
	"runtime"
	"time"

	"bionicdb/internal/btree"
	"bionicdb/internal/bufferpool"
	"bionicdb/internal/columnar"
	"bionicdb/internal/dora"
	"bionicdb/internal/hw/logengine"
	"bionicdb/internal/hw/overlay"
	"bionicdb/internal/hw/scanner"
	"bionicdb/internal/hw/treeprobe"
	"bionicdb/internal/lockmgr"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
	"bionicdb/internal/wal"
)

// layerResult is one host microbenchmark: a fixed number of operations on
// fixed inputs, host nanoseconds and heap allocations per operation. Where
// the operation runs inside a simulated process, its cost includes the
// event-kernel work the operation causes.
type layerResult struct {
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Err         string  `json:"error,omitempty"`
}

// layerBench names one microbenchmark: setup builds its inputs untimed
// and returns the timed body, which reports how many operations it ran.
type layerBench struct {
	name  string
	setup func() func() (ops int, err error)
}

// fixed adapts a body with a known operation count.
func fixed(ops int, run func() error) func() (int, error) {
	return func() (int, error) { return ops, run() }
}

// layerBenches are the per-layer microbenchmarks, in report order.
var layerBenches = []layerBench{
	{"sim.event", benchKernelSerial},
	{"sim.parallel_event", benchKernelParallel},
	{"btree.get", benchBtreeGet},
	{"btree.put", benchBtreePut},
	{"btree.scan_row", benchBtreeScan},
	{"bufferpool.fix", benchBufferpoolFix},
	{"lockmgr.acquire_release", benchLockmgr},
	{"wal.append_commit", benchWAL},
	{"dora.enqueue", benchDoraEnqueue},
	{"treeprobe.probe", benchTreeprobe},
	{"logengine.append", benchLogengine},
	{"overlay.get", benchOverlayGet},
	{"overlay.merge_pass", benchOverlayMerge},
	{"platform.cache_access", benchCacheAccess},
	{"platform.ic_send", benchICSend},
	{"columnar.upsert", benchColumnarUpsert},
	{"scanner.scan_row", benchScannerScan},
}

// runLayerBenches runs every microbenchmark once, in order.
func runLayerBenches() map[string]layerResult {
	out := map[string]layerResult{}
	for _, b := range layerBenches {
		out[b.name] = timeLayer(b)
	}
	return out
}

func timeLayer(b layerBench) layerResult {
	run := b.setup()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ops, err := run()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	if ops <= 0 && err == nil {
		err = fmt.Errorf("ran no operations")
	}
	r := layerResult{Ops: ops, NsPerOp: float64(d.Nanoseconds()) / float64(max(ops, 1)),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(max(ops, 1))}
	if err != nil {
		r.Err = err.Error()
	}
	return r
}

// inProc runs body in one simulated process on a fresh HC2 machine and
// returns the timed body: the whole event loop.
func inProc(build func(pl *platform.Platform) func(p *sim.Proc, t *platform.Task)) func() error {
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	body := build(pl)
	env.Spawn("bench", func(p *sim.Proc) {
		body(p, pl.NewTask(p, pl.Cores[0], &stats.Breakdown{}))
	})
	return func() error {
		defer env.Close()
		return env.Run()
	}
}

func key(i int) []byte { return storage.Uint64Key(uint64(i)) }

var rowVal = []byte("0123456789abcdef0123456789abcdef")

// benchKernelSerial is the serial event loop: 16 processes timer-stepping
// through interleaved waits. One operation is one kernel event.
func benchKernelSerial() func() (int, error) {
	env := sim.NewEnv()
	const procs, steps = 16, 25000
	for i := 0; i < procs; i++ {
		env.Spawn("p", func(p *sim.Proc) {
			for j := 0; j < steps; j++ {
				p.Wait(sim.Duration(1 + (i+j)%7))
			}
		})
	}
	return runEvents(env)
}

// runEvents times a whole event loop; one operation is one executed event.
func runEvents(env *sim.Env) func() (int, error) {
	return func() (int, error) {
		defer env.Close()
		err := env.Run()
		return int(env.Executed()), err
	}
}

// benchKernelParallel is an 8-shard storm on the concurrent kernel: per
// shard 2 processes timer-step and every fourth step posts a message to the
// next shard at the lookahead. One operation is one kernel event.
func benchKernelParallel() func() (int, error) {
	const shards, procs, steps = 8, 2, 4000
	const quantum = sim.Duration(1000)
	env := sim.NewEnv()
	env.EnableParallel(shards, quantum)
	for s := 0; s < shards; s++ {
		for k := 0; k < procs; k++ {
			env.SpawnOn(s, "storm", func(p *sim.Proc) {
				for i := 0; i < steps; i++ {
					p.Wait(quantum * sim.Duration(1+(k+i)%5))
					if i%4 == 3 {
						p.CrossAt((s+1)%shards, p.Now().Add(quantum), func() {})
					}
				}
			})
		}
	}
	return runEvents(env)
}

func filledTree(n int) *btree.Tree {
	t := btree.New(btree.Config{})
	for i := 0; i < n; i++ {
		t.Put(key(i), rowVal, nil)
	}
	return t
}

func benchBtreeGet() func() (int, error) {
	const n, ops = 100000, 300000
	t := filledTree(n)
	r := sim.NewRand(1)
	keys := make([][]byte, ops)
	for i := range keys {
		keys[i] = key(r.Intn(n))
	}
	tr := &btree.Trace{}
	return fixed(ops, func() error {
		for _, k := range keys {
			tr.Reset()
			if _, ok := t.Get(k, tr); !ok {
				return fmt.Errorf("key missing")
			}
		}
		return nil
	})
}

func benchBtreePut() func() (int, error) {
	const ops = 150000
	r := sim.NewRand(2)
	keys := make([][]byte, ops)
	for i := range keys {
		keys[i] = key(r.Intn(1 << 30))
	}
	t := btree.New(btree.Config{})
	tr := &btree.Trace{}
	return fixed(ops, func() error {
		for _, k := range keys {
			tr.Reset()
			t.Put(k, rowVal, tr)
		}
		return nil
	})
}

func benchBtreeScan() func() (int, error) {
	const n, passes = 100000, 40
	t := filledTree(n)
	return fixed(n*passes, func() error {
		rows := 0
		for i := 0; i < passes; i++ {
			t.Scan(nil, nil, nil, func(k, v []byte) bool { rows++; return true })
		}
		if rows != n*passes {
			return fmt.Errorf("scanned %d rows", rows)
		}
		return nil
	})
}

// benchBufferpoolFix fixes and unfixes pages of a 1536-page working set in
// a 1024-frame pool, so about a third of fixes miss and evict.
func benchBufferpoolFix() func() (int, error) {
	const ops, pages = 300000, 1536
	return fixed(ops, inProc(func(pl *platform.Platform) func(*sim.Proc, *platform.Task) {
		bp := bufferpool.New(pl, pl.Disk, bufferpool.DefaultConfig(1024, pl.Cfg.PageSize))
		r := sim.NewRand(3)
		ids := make([]storage.PageID, ops)
		for i := range ids {
			ids[i] = storage.PageID(r.Intn(pages))
		}
		return func(p *sim.Proc, t *platform.Task) {
			for _, id := range ids {
				bp.Fix(t, id)
				bp.Unfix(t, id, false)
			}
			t.Flush()
		}
	}))
}

// benchLockmgr runs transactions that each take an intention lock and four
// exclusive row locks, then release all. One operation is one lock.
func benchLockmgr() func() (int, error) {
	const txns, rows = 75000, 4
	var err error
	run := inProc(func(pl *platform.Platform) func(*sim.Proc, *platform.Task) {
		m := lockmgr.New(pl, lockmgr.DefaultConfig())
		names := make([]string, 1024)
		for i := range names {
			names[i] = lockmgr.RowLock(1, key(i))
		}
		table := lockmgr.TableLock(1)
		return func(p *sim.Proc, t *platform.Task) {
			for i := 0; i < txns && err == nil; i++ {
				txn := uint64(i + 1)
				err = m.Acquire(t, txn, table, lockmgr.IX)
				for j := 0; j < rows && err == nil; j++ {
					err = m.Acquire(t, txn, names[(i*rows+j)%len(names)], lockmgr.X)
				}
				m.ReleaseAll(t, txn)
			}
			t.Flush()
		}
	})
	return fixed(txns*(rows+1), func() error {
		if e := run(); e != nil {
			return e
		}
		return err
	})
}

// benchWAL runs 8 writers, each appending an update record and waiting
// for it to be durable under group commit. One operation is one commit.
func benchWAL() func() (int, error) {
	const writers, commits = 8, 7500
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	m := wal.NewManager(pl, wal.NewStore(pl.SSD), wal.DefaultManagerConfig())
	left := writers
	for w := 0; w < writers; w++ {
		env.Spawn("writer", func(p *sim.Proc) {
			t := pl.NewTask(p, pl.Cores[w], &stats.Breakdown{})
			for i := 0; i < commits; i++ {
				rec := wal.Record{Txn: uint64(w*commits + i + 1), Type: wal.RecUpdate, Table: 1, Key: key(i), Before: rowVal, After: rowVal}
				lsn := m.Append(t, &rec)
				t.Flush()
				done := sim.NewSignal(env)
				m.CommitDurable(lsn, done)
				done.Await(p)
			}
			if left--; left == 0 {
				m.Stop()
			}
		})
	}
	return fixed(writers*commits, func() error { defer env.Close(); return env.Run() })
}

// benchDoraEnqueue sends single-action transactions to one partition in
// batches of 8 sharing a rendezvous point. One operation is one action
// enqueued, dispatched and executed.
func benchDoraEnqueue() func() (int, error) {
	const batches, batch = 12500, 8
	var voteErr error
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	pt := dora.NewPartition(pl, dora.NewRegistry(), 0, pl.Cores[0], dora.DefaultCosts(), 1, &stats.Breakdown{})
	pt.Start()
	env.Spawn("sender", func(p *sim.Proc) {
		t := pl.NewTask(p, pl.Cores[1], &stats.Breakdown{})
		body := func(t *platform.Task, _ *dora.Partition) bool { t.Exec(stats.CompOther, 50); return true }
		for b := 0; b < batches; b++ {
			rvp := dora.NewRVP(env, batch)
			for i := 0; i < batch; i++ {
				pt.Enqueue(t, &dora.Action{TxnID: uint64(b*batch + i + 1), RVP: rvp, Run: body})
			}
			t.Flush()
			if !rvp.Await(p) {
				voteErr = fmt.Errorf("batch %d voted abort", b)
				break
			}
		}
		pt.Close()
	})
	return fixed(batches*batch, func() error {
		defer env.Close()
		if err := env.Run(); err != nil {
			return err
		}
		return voteErr
	})
}

// benchTreeprobe probes a 50,000-row FPGA-resident tree through the
// hardware tree-probe unit.
func benchTreeprobe() func() (int, error) {
	const n, ops = 50000, 150000
	var miss int
	run := inProc(func(pl *platform.Platform) func(*sim.Proc, *platform.Task) {
		e := treeprobe.New(pl, treeprobe.DefaultConfig())
		tree := btree.New(btree.Config{AddrOf: func(id storage.PageID, size int) uint64 { return pl.AllocFPGA(8 << 10) }})
		for i := 0; i < n; i++ {
			tree.Put(key(i), rowVal, nil)
		}
		r := sim.NewRand(4)
		return func(p *sim.Proc, _ *platform.Task) {
			for i := 0; i < ops; i++ {
				if res := e.ProbeLocal(p, tree, key(r.Intn(n))); !res.Found {
					miss++
				}
			}
		}
	})
	return fixed(ops, func() error {
		if err := run(); err != nil {
			return err
		}
		if miss > 0 {
			return fmt.Errorf("%d probes missed", miss)
		}
		return nil
	})
}

// benchLogengine appends update records through the hardware log engine.
func benchLogengine() func() (int, error) {
	const ops = 100000
	return fixed(ops, inProc(func(pl *platform.Platform) func(*sim.Proc, *platform.Task) {
		e := logengine.New(pl, wal.NewStore(pl.SSD), logengine.DefaultConfig())
		return func(p *sim.Proc, t *platform.Task) {
			for i := 0; i < ops; i++ {
				rec := wal.Record{Txn: uint64(i + 1), Type: wal.RecUpdate, Table: 1, Key: key(i), Before: rowVal, After: rowVal}
				e.Append(t, &rec)
			}
			t.Flush()
			e.Stop()
		}
	}))
}

func overlayStore(pl *platform.Platform, cfg overlay.Config, rows int) *overlay.Store {
	s := overlay.New(pl, treeprobe.New(pl, treeprobe.DefaultConfig()), cfg)
	s.CreateTable(1, 64)
	for i := 0; i < rows; i++ {
		s.LoadRaw(1, key(i), rowVal)
	}
	return s
}

// benchOverlayGet reads rows of a 50,000-row overlay table.
func benchOverlayGet() func() (int, error) {
	const n, ops = 50000, 50000
	var miss int
	run := inProc(func(pl *platform.Platform) func(*sim.Proc, *platform.Task) {
		s := overlayStore(pl, overlay.DefaultConfig(), n)
		r := sim.NewRand(5)
		return func(p *sim.Proc, t *platform.Task) {
			for i := 0; i < ops; i++ {
				if _, ok := s.Get(t, 1, key(r.Intn(n))); !ok {
					miss++
				}
			}
			t.Flush()
			s.Stop()
		}
	})
	return fixed(ops, func() error {
		if err := run(); err != nil {
			return err
		}
		if miss > 0 {
			return fmt.Errorf("%d gets missed", miss)
		}
		return nil
	})
}

// benchOverlayMerge runs the overlay's bulk-merge daemon every 1ms of
// simulated time while a writer dirties 64 rows every 10ms, so most passes
// find an empty dirty set, as between bursts in a run. One operation is
// one merge pass, including the writes that dirtied it.
func benchOverlayMerge() func() (int, error) {
	const rounds, batch = 40, 64
	passes := 0
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2())
	cfg := overlay.DefaultConfig()
	cfg.MergeInterval = sim.Millisecond
	s := overlayStore(pl, cfg, 10000)
	s.AfterMerge = func(*sim.Proc) { passes++ }
	env.Spawn("writer", func(p *sim.Proc) {
		t := pl.NewTask(p, pl.Cores[0], &stats.Breakdown{})
		for i := 0; i < rounds; i++ {
			for j := 0; j < batch; j++ {
				s.Put(t, 1, key((i*batch+j)%10000), rowVal)
			}
			t.Flush()
			p.Wait(10 * sim.Millisecond)
		}
		s.Stop()
	})
	return func() (int, error) {
		defer env.Close()
		err := env.Run()
		return passes, err
	}
}

// benchCacheAccess charges 64-byte accesses over an 8 MB address range to
// the core's cache hierarchy.
func benchCacheAccess() func() (int, error) {
	const ops = 400000
	return fixed(ops, inProc(func(pl *platform.Platform) func(*sim.Proc, *platform.Task) {
		base := pl.AllocHost(8 << 20)
		r := sim.NewRand(6)
		addrs := make([]uint64, ops)
		for i := range addrs {
			addrs[i] = base + uint64(r.Intn(8<<20))&^63
		}
		return func(p *sim.Proc, t *platform.Task) {
			for i, a := range addrs {
				t.Access(stats.CompBtree, a, 64)
				if i%64 == 63 {
					t.Flush()
				}
			}
			t.Flush()
		}
	}))
}

// benchICSend posts 64-byte messages from socket 0 to the other sockets of
// an 8-socket ring whose platform is confined to kernel shards, the way
// engine-sharded runs use the fabric.
func benchICSend() func() (int, error) {
	const ops = 1000000
	env := sim.NewEnv()
	pl := platform.New(env, platform.HC2Scaled(8))
	pl.Confine()
	env.SpawnOn(0, "sender", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			pl.IC.Send(p, 0, 1+i%7, 64)
		}
	})
	return fixed(ops, func() error { defer env.Close(); return env.Run() })
}

func stockTable(pl *platform.Platform) *columnar.Table {
	return columnar.NewTable(pl, "stock", columnar.U64Col("id"), columnar.U64Col("qty"), columnar.BytesCol("name"))
}

// benchColumnarUpsert upserts 1,000,000 rows over 50,000 keys: one insert
// then nineteen updates per key.
func benchColumnarUpsert() func() (int, error) {
	const ops, keys = 1000000, 50000
	env := sim.NewEnv()
	tbl := stockTable(platform.New(env, platform.HC2()))
	name := []byte("item")
	return fixed(ops, func() error {
		defer env.Close()
		for i := 0; i < ops; i++ {
			tbl.Upsert(uint64(i%keys), uint64(i%100), name)
		}
		if tbl.Rows() != keys {
			return fmt.Errorf("%d rows after upserts", tbl.Rows())
		}
		return nil
	})
}

// benchScannerScan runs the hardware scanner over a 50,000-row projection
// with a 10% selective predicate, 40 times. One operation is one row.
func benchScannerScan() func() (int, error) {
	const rows, scans = 50000, 40
	return fixed(rows*scans, inProc(func(pl *platform.Platform) func(*sim.Proc, *platform.Task) {
		e := scanner.New(pl, scanner.DefaultConfig())
		tbl := stockTable(pl)
		for i := 0; i < rows; i++ {
			tbl.Upsert(uint64(i), uint64(i%100), []byte("item"))
		}
		pred := func(t *columnar.Table, pos int) bool { return t.U64At("qty", pos) < 10 }
		return func(p *sim.Proc, t *platform.Task) {
			for i := 0; i < scans; i++ {
				e.Scan(t, tbl, pred, []string{"id", "qty"})
			}
			t.Flush()
		}
	}))
}
