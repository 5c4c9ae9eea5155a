package bench

import (
	"fmt"

	"bionicdb/internal/stats"
)

// logLabel names a point's durability layout in tables.
func logLabel(sharded bool) string {
	if sharded {
		return "sharded"
	}
	return "central"
}

// ScalingTable renders scaling results as the fig-scaling table: one row
// per point with a speedup column relative to the same engine and
// workload at the lowest measured socket count. Sharded-log rows share
// that baseline — a 1-socket machine is identical with the flag on or off
// — so central and sharded curves of one engine are directly comparable.
func ScalingTable(results []Result) *stats.Table {
	t := stats.NewTable("workload", "engine", "log", ">sockets", ">terminals",
		">tps", ">speedup", ">uJ/txn", ">p50", ">p95", ">commits")
	// Baseline tps per (workload, engine): the lowest measured socket
	// count with a usable result, regardless of row order or log layout.
	type curve struct{ wl, eng string }
	type baseline struct {
		sockets int
		tps     float64
	}
	base := map[curve]baseline{}
	for _, r := range results {
		if r.Err != nil || r.Res.TPS <= 0 {
			continue
		}
		k := curve{r.Point.Workload.Name, r.Point.Engine.Name}
		if b, ok := base[k]; !ok || r.Point.Sockets < b.sockets {
			base[k] = baseline{r.Point.Sockets, r.Res.TPS}
		}
	}
	for _, r := range results {
		p := r.Point
		if r.Err != nil {
			t.Row(p.Workload.Name, p.Engine.Name, logLabel(p.ShardedLog), fmt.Sprintf("%d", p.Sockets),
				fmt.Sprintf("%d", p.Terminals), "error: "+r.Err.Error(), "", "", "", "", "")
			continue
		}
		speedup := 0.0
		if b := base[curve{p.Workload.Name, p.Engine.Name}]; b.tps > 0 {
			speedup = r.Res.TPS / b.tps
		}
		t.Row(p.Workload.Name, p.Engine.Name, logLabel(p.ShardedLog),
			fmt.Sprintf("%d", p.Sockets),
			fmt.Sprintf("%d", p.Terminals),
			fmt.Sprintf("%.0f", r.Res.TPS),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.1f", r.Res.JoulesPerTxn*1e6),
			r.Res.Latency.Percentile(50).String(),
			r.Res.Latency.Percentile(95).String(),
			fmt.Sprintf("%d", r.Res.Commits))
	}
	return t
}
