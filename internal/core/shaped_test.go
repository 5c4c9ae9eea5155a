package core

import (
	"testing"

	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
)

// TestShapedKernelMatchesSerial pins the harness-level shaping contract:
// shaping the environment into one shard per socket after the engine is
// built changes host-side structure only, so every measured quantity —
// commits, latency shape, energy, component breakdown, even the kernel
// event count — is bit-identical to the serial kernel at every socket
// count, and a shaped run reports window counters while a serial one does
// not.
func TestShapedKernelMatchesSerial(t *testing.T) {
	for _, sockets := range []int{1, 2, 4} {
		run := func(shaped bool) *Result {
			cfg := RunConfig{
				Terminals: 4 * sockets,
				Warmup:    sim.Millisecond, Measure: 5 * sim.Millisecond,
				Seed: 11,
			}
			res, err := Run(cfg, kvWorkload{}, func(env *sim.Env) Engine {
				eng := NewDORA(env, platform.HC2Scaled(sockets), kvTables(), HashScheme(8*sockets))
				if shaped {
					env.Shape(eng.Platform().KernelShards())
				}
				return eng
			})
			if err != nil {
				t.Fatalf("x%d shaped=%v: %v", sockets, shaped, err)
			}
			return res
		}
		serial, sh := run(false), run(true)
		if serial.WindowsByShard != nil {
			t.Errorf("x%d: serial run reports window counters %v", sockets, serial.WindowsByShard)
		}
		if wantShaped := sockets > 1; (sh.WindowsByShard != nil) != wantShaped {
			t.Errorf("x%d: shaped run window counters %v, want present=%v", sockets, sh.WindowsByShard, wantShaped)
		}
		if serial.Commits != sh.Commits || serial.Aborts != sh.Aborts {
			t.Errorf("x%d: commit/abort counts diverge: %d/%d vs %d/%d",
				sockets, serial.Commits, serial.Aborts, sh.Commits, sh.Aborts)
		}
		if serial.TPS != sh.TPS {
			t.Errorf("x%d: tps diverges: %v vs %v", sockets, serial.TPS, sh.TPS)
		}
		if serial.JoulesPerTxn != sh.JoulesPerTxn {
			t.Errorf("x%d: joules/txn diverges: %v vs %v", sockets, serial.JoulesPerTxn, sh.JoulesPerTxn)
		}
		if serial.BD.Total() != sh.BD.Total() {
			t.Errorf("x%d: breakdowns diverge: %v vs %v", sockets, serial.BD.Total(), sh.BD.Total())
		}
		for _, pct := range []float64{50, 95, 99} {
			if s, p := serial.Latency.Percentile(pct), sh.Latency.Percentile(pct); s != p {
				t.Errorf("x%d: p%.0f diverges: %v vs %v", sockets, pct, s, p)
			}
		}
		if serial.Events != sh.Events {
			t.Errorf("x%d: kernel event counts diverge: %d vs %d", sockets, serial.Events, sh.Events)
		}
		if serial.Events == 0 {
			t.Errorf("x%d: no kernel events recorded", sockets)
		}
	}
}
