package main

import (
	"testing"

	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
)

func TestPercentileUsWithinBucket(t *testing.T) {
	var h stats.Histogram
	r := sim.NewRand(1)
	for i := 0; i < 10000; i++ {
		h.Record(sim.Duration(1000+r.Intn(5000000)) * sim.Nanosecond / 1000)
	}
	for _, p := range []float64{1, 50, 90, 99, 99.9} {
		got := percentileUs(&h, p)
		mid := h.Percentile(p).Microseconds()
		if d := got/mid - 1; d > 1.0/16 || d < -1.0/16 {
			t.Errorf("p%v: interpolated %v, bucket midpoint %v", p, got, mid)
		}
		t.Logf("p%v: %v vs %v", p, got, mid)
	}
}
