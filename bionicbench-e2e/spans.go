package main

import (
	"sort"
	"sync"
	"time"

	"bionicdb/internal/sim"
)

// spanSet aggregates the benchmark's own spans: one entry per span name
// with its count, summed host time and, for spans that carry it, summed
// simulated time. Spans are
// recorded around the calls the benchmark makes into the program's layers
// (engine construction, Populate, each transaction program). A nil set
// records nothing. Transaction programs run on several host goroutines
// under the parallel kernel, so the set is locked.
type spanSet struct {
	mu sync.Mutex
	m  map[string]*spanAgg
}

type spanAgg struct {
	Count    int64   `json:"count"`
	HostMs   float64 `json:"host_ms"`
	SimCount int64   `json:"sim_count"`
	SimMs    float64 `json:"sim_ms"`
}

func newSpanSet() *spanSet { return &spanSet{m: map[string]*spanAgg{}} }

// add records one span; simD < 0 marks a span without simulated time.
func (s *spanSet) add(name string, host time.Duration, simD sim.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.m[name]
	if a == nil {
		a = &spanAgg{}
		s.m[name] = a
	}
	a.Count++
	a.HostMs += host.Seconds() * 1e3
	if simD >= 0 {
		a.SimCount++
		a.SimMs += simD.Seconds() * 1e3
	}
}

// sorted returns the aggregates by name.
func (s *spanSet) sorted() map[string]spanAgg {
	out := map[string]spanAgg{}
	if s == nil {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.m))
	for n := range s.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out[n] = *s.m[n]
	}
	return out
}
