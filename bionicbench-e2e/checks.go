package main

import (
	"fmt"

	"bionicdb/internal/core"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/workload/htap"
	"bionicdb/internal/workload/tpcc"
	"bionicdb/internal/workload/ycsb"
)

// checkPoint verifies one point's outputs through the engine's raw
// verification surface. Every returned problem fails the point. No expected
// value is pinned: each check compares the run's outputs with each other.
func (w *workloadDef) checkPoint(r *pointRun) []string {
	if r.Err != nil {
		return []string{r.Err.Error()}
	}
	var bad []string
	if len(r.rec.engs) == 0 {
		return []string{"no engine was constructed"}
	}
	// The first engine is the measured run's; a failover point builds a
	// second one for the crash phase, which stops mid-flight.
	eng := r.rec.engs[0]
	switch w.Workload {
	case "tpcc", "htap-tpcc":
		bad = append(bad, checkTPCC(*w.TPCC, eng)...)
	case "ycsb":
		n := 0
		eng.ScanRaw(ycsb.TUser, nil, nil, func(k, v []byte) bool { n++; return true })
		if n != w.YCSB.Records {
			bad = append(bad, fmt.Sprintf("ycsb: %d rows after the run, loaded %d", n, w.YCSB.Records))
		}
	}
	if m, ok := r.rec.wls[0].(*htap.Mixed); ok {
		bad = append(bad, checkHTAP(m, eng)...)
	}
	if f := r.Failover; f != nil {
		if !f.DigestOK {
			bad = append(bad, "failover: replica content differs from recovery of the primary's shipped prefix")
		}
		if f.LostTxns != 0 {
			bad = append(bad, fmt.Sprintf("failover: %d acknowledged transactions lost under %s", f.LostTxns, f.Mode))
		}
	}
	if r.Res != nil && r.Res.Commits == 0 {
		bad = append(bad, "no transaction committed in the measurement window")
	}
	return bad
}

// checkTPCC verifies the TPC-C consistency conditions on the final database:
// C1 (each district's order ids are exactly 1..next_o_id-1), every order's
// line count matches its header, and W_YTD equals the sum of its districts'
// D_YTD.
func checkTPCC(cfg tpcc.Config, e core.Engine) []string {
	var bad []string
	for wid := uint64(1); wid <= uint64(cfg.Warehouses); wid++ {
		wv, ok := e.ReadRaw(tpcc.TWarehouse, tpcc.WarehouseKey(wid))
		if !ok {
			return append(bad, fmt.Sprintf("tpcc: warehouse %d missing", wid))
		}
		var dytd uint64
		for did := uint64(1); did <= uint64(cfg.Districts); did++ {
			dv, ok := e.ReadRaw(tpcc.TDistrict, tpcc.DistrictKey(wid, did))
			if !ok {
				return append(bad, fmt.Sprintf("tpcc: district %d.%d missing", wid, did))
			}
			d := tpcc.DecodeDistrict(dv)
			dytd += d.YTD
			var orders, maxOID uint64
			e.ScanRaw(tpcc.TOrder, tpcc.OrderKey(wid, did, 0), tpcc.OrderKey(wid, did+1, 0), func(k, v []byte) bool {
				o := tpcc.DecodeOrder(v)
				orders++
				if o.OID > maxOID {
					maxOID = o.OID
				}
				lines := 0
				e.ScanRaw(tpcc.TOrderLine, tpcc.OrderLineKey(wid, did, o.OID, 0), tpcc.OrderLineKey(wid, did, o.OID+1, 0),
					func(k, v []byte) bool { lines++; return true })
				if uint32(lines) != o.OLCnt {
					bad = append(bad, fmt.Sprintf("tpcc: order %d.%d.%d has %d lines, header says %d", wid, did, o.OID, lines, o.OLCnt))
				}
				return true
			})
			if maxOID >= d.NextOID || orders != d.NextOID-1 {
				bad = append(bad, fmt.Sprintf("tpcc C1: district %d.%d has %d orders, max id %d, next_o_id %d",
					wid, did, orders, maxOID, d.NextOID))
			}
		}
		if w := tpcc.DecodeWarehouse(wv).YTD; w != dytd {
			bad = append(bad, fmt.Sprintf("tpcc: warehouse %d w_ytd %d != sum(d_ytd) %d", wid, w, dytd))
		}
	}
	return bad
}

// checkHTAP verifies the analytical half: no scan saw a snapshot ahead of
// the durable point, and every live projection holds exactly what a fresh
// rebuild from the final row store holds.
func checkHTAP(m *htap.Mixed, e core.Engine) []string {
	run := m.LastRun()
	if run == nil {
		return []string{"htap: the analytical half never attached"}
	}
	var bad []string
	if v := run.Stats().SnapViolations; v != 0 {
		bad = append(bad, fmt.Sprintf("htap: %d scans saw a snapshot ahead of the durable point", v))
	}
	env := sim.NewEnv()
	defer env.Close()
	pl := platform.New(env, platform.HC2())
	for _, spec := range m.Specs() {
		live := run.Projection(spec.Name)
		rebuilt := htap.BuildProjection(pl, spec, func(fn func(k, v []byte) bool) { e.ScanRaw(spec.Table, nil, nil, fn) })
		if live.ContentDigest() != rebuilt.ContentDigest() {
			bad = append(bad, fmt.Sprintf("htap: projection %s (%d rows) differs from a rebuild (%d rows)",
				spec.Name, live.Rows(), rebuilt.Rows()))
		}
	}
	return bad
}
