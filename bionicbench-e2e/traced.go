package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"

	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/stats"
)

// traced measures the per-layer metrics. It runs the layer microbenchmarks,
// then every point of a pass twice: untraced, and traced with the program's
// flight recorder (spans and telemetry), a host CPU profile and the
// benchmark's own spans on. The two runs of a point alternate which goes
// first, so neither side always pays for a cold heap. Every traced point's
// digest must equal its untraced twin's; the traced wall time over the
// untraced one is the recorder's overhead.
func (b *runner) traced() (*resultDoc, error) {
	layers := runLayerBenches()

	dir := filepath.Join(b.outDir, "trace", b.def.Name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	spans := newSpanSet()
	opts := &obs.Options{Trace: true, Metrics: true}
	prof := newProfileSummary()
	var base, tracedRuns []*pointRun
	var profErr error
	n := 0
	b.eachPoint(func(i int, p pointDef, seed uint64) {
		untraced := func() { base = append(base, b.run(i, p, seed, nil, nil)) }
		traced := func() {
			path := filepath.Join(dir, fmt.Sprintf("cpu-%03d.pprof", n))
			stop, err := startProfile(path)
			tracedRuns = append(tracedRuns, b.run(i, p, seed, spans, opts))
			if err == nil {
				err = stop()
			}
			if err == nil {
				err = prof.addFile(path)
			}
			profErr = errors.Join(profErr, err)
		}
		if n%2 == 0 {
			untraced()
			traced()
		} else {
			traced()
			untraced()
		}
		n++
	})
	if profErr != nil {
		return nil, profErr
	}
	traceBytes, err := writeTraces(dir, tracedRuns)
	if err != nil {
		return nil, err
	}

	untracedSum, tracedSum := summarize(base, false), summarize(tracedRuns, true)
	doc := b.doc([]passSummary{untracedSum, tracedSum}, base)
	doc.Spans = spans.sorted()
	doc.Layers = layers
	doc.HostCPU = prof
	for _, name := range sortedKeys(layers) {
		doc.Attempted++
		if l := layers[name]; l.Err != "" {
			doc.Failed++
			doc.Problems = append(doc.Problems, fmt.Sprintf("microbenchmark %s: %s", name, l.Err))
		}
	}
	m := doc.Metrics
	layerMetrics(m, poolByEngine(base), layers, prof, doc.Spans)
	m["obs.trace_overhead_ratio"] = metric{tracedSum.WallS / untracedSum.WallS, "ratio"}
	m["obs.trace_mb"] = metric{float64(traceBytes) / 1e6, "MB"}
	return doc, nil
}

// startProfile starts the host CPU profile into path and returns the
// function that stops it and closes the file.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeTraces exports each traced point's spans (Chrome trace_event JSON)
// and telemetry (CSV) and returns the bytes written.
func writeTraces(dir string, runs []*pointRun) (int64, error) {
	var total int64
	for i, r := range runs {
		if r.Res == nil {
			continue
		}
		stem := filepath.Join(dir, fmt.Sprintf("%02d-%s-%d", i, r.Def.Engine, r.Seed))
		if r.Res.Trace != nil {
			if err := obs.WriteTraceFile(stem+".trace.json", r.Res.Trace); err != nil {
				return 0, err
			}
		}
		if r.Res.Metrics != nil {
			if err := r.Res.Metrics.WriteMetricsFile(stem + ".metrics.csv"); err != nil {
				return 0, err
			}
		}
		for _, ext := range []string{".trace.json", ".metrics.csv"} {
			if st, err := os.Stat(stem + ext); err == nil {
				total += st.Size()
			}
		}
		r.Res.Trace, r.Res.Metrics = nil, nil
	}
	return total, nil
}

// energyDomains are the EnergyReport domains reported as shares.
var energyDomains = []struct {
	name string
	get  func(*platform.EnergyReport) float64
}{
	{"cpu_dynamic", func(e *platform.EnergyReport) float64 { return e.CPUDynamic }},
	{"fpga", func(e *platform.EnergyReport) float64 { return e.FPGA }},
	{"dram", func(e *platform.EnergyReport) float64 { return e.DRAM }},
	{"interconnect", func(e *platform.EnergyReport) float64 { return e.Interconnect }},
	{"replication", func(e *platform.EnergyReport) float64 { return e.Replication }},
}

// sharePhases are the latency-anatomy phases reported as shares for every
// engine; the cross-shard and replication shares are reported for DORA.
var sharePhases = []stats.Phase{stats.PhaseQueue, stats.PhaseLock, stats.PhaseExec, stats.PhaseDur}

// layerMetrics adds the per-layer metrics. A layer the workload does not
// exercise reports 0.
func layerMetrics(m map[string]metric, pools map[string]*enginePool, layers map[string]layerResult,
	prof *profileSummary, spans map[string]spanAgg) {
	micro := func(name, ns, allocs string) {
		l := layers[name]
		m[ns] = metric{l.NsPerOp, "ns"}
		m[allocs] = metric{l.AllocsPerOp, "count"}
	}
	micro("sim.event", "sim.ns_per_event", "sim.allocs_per_event")
	m["sim.parallel_ns_per_event"] = metric{layers["sim.parallel_event"].NsPerOp, "ns"}
	micro("btree.get", "btree.get_ns", "btree.get_allocs")
	micro("btree.put", "btree.put_ns", "btree.put_allocs")
	micro("btree.scan_row", "btree.scan_ns_per_row", "btree.scan_allocs_per_row")
	micro("bufferpool.fix", "bufferpool.fix_ns", "bufferpool.fix_allocs")
	micro("lockmgr.acquire_release", "lockmgr.acquire_release_ns", "lockmgr.acquire_release_allocs")
	micro("wal.append_commit", "wal.append_commit_ns", "wal.append_commit_allocs")
	micro("dora.enqueue", "dora.enqueue_ns", "dora.enqueue_allocs")
	micro("treeprobe.probe", "treeprobe.probe_ns", "treeprobe.probe_allocs")
	micro("logengine.append", "logengine.append_ns", "logengine.append_allocs")
	micro("overlay.get", "overlay.get_ns", "overlay.get_allocs")
	micro("overlay.merge_pass", "overlay.merge_pass_ns", "overlay.merge_allocs")
	micro("platform.cache_access", "platform.cache_access_ns", "platform.cache_access_allocs")
	micro("platform.ic_send", "platform.ic_send_ns", "platform.ic_send_allocs")
	micro("columnar.upsert", "columnar.upsert_ns", "columnar.upsert_allocs")
	micro("scanner.scan_row", "scanner.scan_ns_per_row", "scanner.scan_allocs_per_row")

	for _, mod := range hostModules {
		m["host_cpu."+mod] = metric{prof.share(mod), "share"}
	}

	var windows, stalls, shardEvents uint64
	var deadlocks, giveups, txnsRecovered int64
	var replRTT, replLag float64
	for _, p := range pools {
		windows += p.windows
		stalls += p.stalls
		shardEvents += p.shardEvents
		deadlocks += p.counters["aborts.deadlock"]
		giveups += p.counters["aborts.giveup"]
		txnsRecovered += p.txnsRecovered
		replRTT = max(replRTT, p.replAckRTTMaxUs)
		replLag = max(replLag, p.replLagKBMax)
	}
	m["sim.events_per_window"] = metric{ratio(float64(shardEvents), float64(windows)), "count"}
	m["sim.stall_ratio"] = metric{ratio(float64(stalls), float64(windows)), "ratio"}
	m["txn.deadlock_aborts"] = metric{float64(deadlocks), "count"}
	m["txn.giveups"] = metric{float64(giveups), "count"}
	m["wal.repl_ack_rtt_max_us"] = metric{replRTT, "us"}
	m["wal.repl_lag_kb_max"] = metric{replLag, "KB"}
	// Both failover boots (the replica and the prefix oracle) replay.
	m["failover.replay_host_ns_per_txn"] = metric{ratio(prof.RecoverMs*1e6, float64(2*txnsRecovered)), "ns"}

	for _, e := range engines {
		p := pools[e]
		if p == nil {
			p = &enginePool{counters: map[string]int64{}}
		}
		m["platform.llc_miss_ratio."+e] = metric{p.cache.MissRatio(), "ratio"}
		total := p.energy.Total()
		for _, d := range energyDomains {
			m["platform.energy_share."+d.name+"."+e] = metric{ratio(d.get(&p.energy), total), "share"}
		}
		m["btree.cpu_share."+e] = metric{p.bd.Fraction(stats.CompBtree), "share"}
		m["bufferpool.cpu_share."+e] = metric{p.bd.Fraction(stats.CompBpool), "share"}
		m["wal.log_bytes_per_txn."+e] = metric{ratio(float64(p.logBytes), float64(p.commits)), "B"}
		m["wal.txns_per_flush."+e] = metric{ratio(float64(p.commits), float64(p.logSyncs)), "count"}
		m["anatomy.durability.p99_us."+e] = metric{percentileUs(p.anatomy.Phase(stats.PhaseDur), 99), "us"}
		c := p.counters
		aborts := c["aborts.deadlock"] + c["aborts.giveup"] + c["aborts.user"]
		m["txn.abort_ratio."+e] = metric{ratio(float64(aborts), float64(aborts+c["commits"])), "ratio"}
		m["htap.scan_gbps."+e] = metric{ratio(float64(p.scanBytes)/1e9, p.measureS), "GB/s"}
		m["htap.staleness_max_ms."+e] = metric{p.staleMax, "ms"}
		var phaseSum float64
		for _, ph := range stats.Phases() {
			phaseSum += float64(p.anatomy.Phase(ph).Sum())
		}
		for _, ph := range sharePhases {
			m["anatomy."+phaseName(ph)+".share."+e] = metric{ratio(float64(p.anatomy.Phase(ph).Sum()), phaseSum), "share"}
		}
		switch e {
		case "conventional":
			m["anatomy.lock.p99_us.conventional"] = metric{percentileUs(p.anatomy.Phase(stats.PhaseLock), 99), "us"}
		case "dora":
			m["anatomy.crossshard.p99_us.dora"] = metric{percentileUs(p.anatomy.Phase(stats.PhaseCross), 99), "us"}
			m["anatomy.replication.p99_us.dora"] = metric{percentileUs(p.anatomy.Phase(stats.PhaseRepl), 99), "us"}
			for _, ph := range []stats.Phase{stats.PhaseCross, stats.PhaseRepl} {
				m["anatomy."+phaseName(ph)+".share.dora"] = metric{ratio(float64(p.anatomy.Phase(ph).Sum()), phaseSum), "share"}
			}
			m["dora.crossshard_ratio"] = metric{ratio(float64(c["crossshard.commits"]), float64(c["commits"])), "ratio"}
			n := float64(len(p.failovers))
			m["failover.serving_ms"] = metric{ratio(p.servingMs, n), "ms"}
			m["failover.replay_ms"] = metric{ratio(p.replayMs, n), "ms"}
		}
		if e != "conventional" {
			m["anatomy.queue.p99_us."+e] = metric{percentileUs(p.anatomy.Phase(stats.PhaseQueue), 99), "us"}
		}
	}
	var lost int64
	for _, p := range pools {
		lost += p.lostTxns
	}
	m["failover.lost_txns"] = metric{float64(lost), "count"}

	var construct, populate, txns spanAgg
	for name, s := range spans {
		switch {
		case name == "engine.construct":
			construct = s
		case name == "workload.populate":
			populate = s
		case len(name) > 4 && name[:4] == "txn.":
			txns.Count += s.Count
			txns.HostMs += s.HostMs
			txns.SimCount += s.SimCount
			txns.SimMs += s.SimMs
		}
	}
	m["span.populate_ms"] = metric{ratio(populate.HostMs, float64(populate.Count)), "ms"}
	m["span.construct_ms"] = metric{ratio(construct.HostMs, float64(construct.Count)), "ms"}
	m["span.txn_sim_us"] = metric{ratio(txns.SimMs*1e3, float64(txns.SimCount)), "us"}
}

// phaseName is a phase's metric-name spelling.
func phaseName(ph stats.Phase) string {
	if ph == stats.PhaseCross {
		return "crossshard"
	}
	return ph.String()
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
