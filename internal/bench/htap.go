package bench

import (
	"fmt"

	"bionicdb/internal/stats"
)

// HTAPEngines returns the fig-htap engine axis: the two machines the paper
// contrasts, conventional and fully-offloaded bionic. With Spec.HTAP both
// pay for projection maintenance and scans — the conventional one out of
// host memory on OLTP cores, the bionic one on the FPGA side off the
// overlay merge path.
func HTAPEngines() []ScalingEngine {
	e := DefaultScalingEngines()
	return []ScalingEngine{e[0], e[2]}
}

// HTAPTable renders HTAP results as the fig-htap table: transactional
// throughput and energy next to scan bandwidth and freshness, one row per
// point.
func HTAPTable(results []Result) *stats.Table {
	t := stats.NewTable("workload", "engine", ">sockets", ">terminals",
		">tps", ">uJ/txn", ">scans", ">scan MB/s", ">stale max", ">stale mean", ">commits")
	for _, r := range results {
		p := r.Point
		if r.Err != nil {
			t.Row(p.Workload.Name, p.Engine.Name, fmt.Sprintf("%d", p.Sockets),
				fmt.Sprintf("%d", p.Terminals), "error: "+r.Err.Error(), "", "", "", "", "", "")
			continue
		}
		res := r.Res
		scans, mbps, staleMax, staleMean := "-", "-", "-", "-"
		if sc := res.Scan; sc != nil {
			scans = fmt.Sprintf("%d", sc.Scans)
			mbps = fmt.Sprintf("%.1f", float64(sc.Bytes)/1e6/p.Measure.Seconds())
			staleMax = sc.StaleMax.String()
			staleMean = sc.StaleMean().String()
		}
		t.Row(p.Workload.Name, p.Engine.Name,
			fmt.Sprintf("%d", p.Sockets),
			fmt.Sprintf("%d", p.Terminals),
			fmt.Sprintf("%.0f", res.TPS),
			fmt.Sprintf("%.1f", res.JoulesPerTxn*1e6),
			scans, mbps, staleMax, staleMean,
			fmt.Sprintf("%d", res.Commits))
	}
	return t
}
