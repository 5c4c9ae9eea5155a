package main

import "testing"

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		want   string
		frames []string // leaf first
	}{
		{"btree", []string{"bytes.Compare", "bionicdb/internal/btree.(*Tree).Get", "bionicdb/internal/core.(*DORAEngine).Submit"}},
		{"hw", []string{"bionicdb/internal/hw/overlay.(*Store).Get"}},
		{"workload", []string{"bionicdb/internal/workload/tpcc.(*Workload).NewOrder.func1"}},
		{"gc", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "bionicdb/internal/btree.(*Tree).Put"}},
		{"sched", []string{"runtime.futex", "runtime.lock2", "runtime.chanrecv", "bionicdb/internal/sim.(*Proc).park"}},
		{"sched", []string{"runtime.findRunnable", "runtime.schedule", "runtime.mstart"}},
		{"sim", []string{"runtime.memmove", "bionicdb/internal/sim.(*Env).RunUntil"}},
		{"other", []string{"bionicdb/internal/stats.(*Histogram).Record"}},
		{"other", []string{"main.(*runner).pass"}},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
