package main

import (
	"math/bits"
	"sort"

	"bionicdb/internal/bench"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

// Histogram resolution of stats.Histogram: 16 sub-buckets per octave, so a
// bucket is at most 1/16 of its lower bound wide.
const histSubBuckets = 16

// percentileUs estimates h's p-quantile in microseconds. stats.Histogram
// answers with the midpoint of the bucket holding the rank; this refines it
// by linear interpolation inside that bucket, by the rank's position among
// the bucket's samples (the usual histogram-quantile estimate). The bucket
// layout mirrors stats.Histogram: 16 sub-buckets per octave.
func percentileUs(h *stats.Histogram, p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := int64(p / 100 * float64(n))
	if rank >= n {
		rank = n - 1
	}
	at := func(r int64) sim.Duration { return h.Percentile((float64(r) + 0.5) / float64(n) * 100) }
	v := at(rank)
	// The bucket's samples are the ranks whose answer equals v.
	lo, hi := sort.Search(int(rank), func(r int) bool { return at(int64(r)) >= v }), int64(rank)
	hi += int64(sort.Search(int(n-rank), func(k int) bool { return at(rank+int64(k)) > v })) - 1
	b := bucketOf(v)
	low, high := bucketLow(b), bucketLow(b+1)
	low, high = max(low, h.Min()), min(high, h.Max())
	frac := (float64(rank-int64(lo)) + 0.5) / float64(hi-int64(lo)+1)
	return (float64(low) + frac*float64(high-low)) / float64(sim.Microsecond)
}

// bucketOf and bucketLow are stats.Histogram's bucket layout.
func bucketOf(d sim.Duration) int {
	if d < 1 {
		d = 1
	}
	msb := 63 - bits.LeadingZeros64(uint64(d))
	var sub uint64
	if msb >= 4 {
		sub = (uint64(d) >> (uint(msb) - 4)) & 15
	} else {
		sub = (uint64(d) << (4 - uint(msb))) & 15
	}
	return min(msb*16+int(sub), 511)
}

func bucketLow(b int) sim.Duration {
	msb, sub := b/16, b%16
	if msb < 4 {
		return sim.Duration(uint64(16+sub) >> (4 - uint(msb)))
	}
	return sim.Duration(uint64(16+sub) << (uint(msb) - 4))
}

// enginePool is one engine's results pooled over the workload's simulation
// seeds: counts and times add up, histograms merge.
type enginePool struct {
	commits  int64
	measureS float64
	energy   platform.EnergyReport
	lat      stats.Histogram
	anatomy  stats.Anatomy
	bd       stats.Breakdown
	cache    platform.CacheStats

	logBytes, logSyncs int64
	windows, stalls    uint64
	shardEvents        uint64

	// Whole-run engine counters (populate through drain).
	counters map[string]int64

	scans, scanBytes int64
	scanS            float64
	staleMax         float64 // ms

	replAckRTTMaxUs, replLagKBMax float64

	failovers               []*bench.FailoverResult
	servingMs, replayMs     float64
	lostTxns, txnsRecovered int64
}

// poolByEngine pools one pass's point runs by engine.
func poolByEngine(runs []*pointRun) map[string]*enginePool {
	out := map[string]*enginePool{}
	for _, r := range runs {
		if r.Res == nil {
			continue
		}
		p := out[r.Def.Engine]
		if p == nil {
			p = &enginePool{counters: map[string]int64{}}
			out[r.Def.Engine] = p
		}
		p.add(r)
	}
	return out
}

func (p *enginePool) add(r *pointRun) {
	res := r.Res
	p.commits += res.Commits
	p.measureS += r.Def.measure().Seconds()
	e, o := &p.energy, res.Energy
	e.Window += o.Window
	e.CPUDynamic += o.CPUDynamic
	e.CPUIdle += o.CPUIdle
	e.FPGA += o.FPGA
	e.DRAM += o.DRAM
	e.PCIe += o.PCIe
	e.Interconnect += o.Interconnect
	e.Storage += o.Storage
	e.Replication += o.Replication
	p.lat.Merge(res.Latency)
	p.anatomy.Merge(&res.Anatomy)
	p.bd.AddAll(&res.BD)
	c := &p.cache
	c.L1Hits += res.Cache.L1Hits
	c.L1Misses += res.Cache.L1Misses
	c.L2Hits += res.Cache.L2Hits
	c.L2Misses += res.Cache.L2Misses
	c.L3Hits += res.Cache.L3Hits
	c.L3Misses += res.Cache.L3Misses
	for _, ls := range res.LogShards {
		p.logBytes += ls.Bytes
		p.logSyncs += ls.Syncs
	}
	// Per-shard events exist only on engine-sharded runs; windows and
	// stalls on every parallel-kernel run.
	if res.EventsByShard != nil {
		for i := range res.WindowsByShard {
			p.windows += res.WindowsByShard[i]
			p.stalls += res.StallsByShard[i]
			p.shardEvents += res.EventsByShard[i]
		}
	}
	for n, v := range r.Counters {
		p.counters[n] += v
	}
	if sc := res.Scan; sc != nil {
		p.scans += sc.Scans
		p.scanBytes += sc.Bytes
		p.scanS += sc.ScanTime.Seconds()
		if ms := sc.StaleMax.Seconds() * 1e3; ms > p.staleMax {
			p.staleMax = ms
		}
	}
	for _, rp := range res.Repl {
		if us := rp.LagTimeMax.Microseconds(); us > p.replAckRTTMaxUs {
			p.replAckRTTMaxUs = us
		}
		if kb := float64(rp.LagBytesMax) / 1024; kb > p.replLagKBMax {
			p.replLagKBMax = kb
		}
	}
	if f := r.Failover; f != nil {
		p.failovers = append(p.failovers, f)
		p.servingMs += f.TimeToServing.Seconds() * 1e3
		p.replayMs += f.ReplaySim.Seconds() * 1e3
		p.lostTxns += f.LostTxns
		p.txnsRecovered += f.TxnsRecovered
	}
}

// simMetrics adds one engine's simulated end-to-end metrics over the pooled
// measurement windows of its simulation seeds: commits per second, joules
// per commit, and latency percentiles of the merged committed-transaction
// histogram.
func simMetrics(m map[string]metric, pct map[string]percentileInfo, engine string, p *enginePool) {
	if p == nil || p.commits == 0 {
		return
	}
	m["sim_tps."+engine] = metric{float64(p.commits) / p.measureS, "txn/s"}
	m["sim_uj_per_txn."+engine] = metric{p.energy.Total() / float64(p.commits) * 1e6, "uJ"}
	for _, q := range []struct {
		name string
		p    float64
	}{{"sim_p50_us.", 50}, {"sim_p99_us.", 99}} {
		m[q.name+engine] = metric{percentileUs(&p.lat, q.p), "us"}
		pct[q.name+engine] = percentileInfo{Samples: p.lat.Count(), BucketRelWide: 1.0 / histSubBuckets}
	}
}

// hostMetrics adds the host end-to-end metrics: wall time outside setup
// and events per second as medians over passes, setup time of one pass
// from each engine's median setup over all its runs, and the process's peak
// memory.
func hostMetrics(m map[string]metric, passes []passSummary, all [][]*pointRun, def *workloadDef) {
	var walls, eps []float64
	for _, p := range passes {
		walls = append(walls, p.WallS)
		eps = append(eps, float64(p.Events)/p.WallS)
	}
	setups := map[string][]float64{}
	for _, runs := range all {
		for _, r := range runs {
			setups[r.Def.Engine] = append(setups[r.Def.Engine], r.Setup.Seconds())
		}
	}
	var setup float64
	for _, p := range def.Points {
		setup += median(setups[p.Engine]) * float64(p.Runs)
	}
	m["wall_s"] = metric{median(walls), "s"}
	m["events_per_s"] = metric{median(eps), "1/s"}
	m["setup_s"] = metric{setup, "s"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
