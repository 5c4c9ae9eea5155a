// Command bionicbench-e2e is bionicdb's end-to-end benchmark. It runs one
// named workload — a few fixed simulation points — from outside the program,
// through core.Run and the bench specs, and reports two kinds of numbers:
// the simulated results (throughput, energy and latency on the modelled
// machine, pure functions of the seed) and the host cost of producing them
// (wall time, events per second, setup time, peak memory). With --trace 1 it
// instead reports per-layer numbers: a traced run of the same points (flight
// recorder, host CPU profile, the benchmark's own spans) and host
// microbenchmarks of each layer on fixed inputs.
//
// Every point's outputs are checked after it runs; a point that errors or
// fails a check counts as failed. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics; the full
// result, with provenance, is written under --out.
//
// Run it through run.py, which builds it against the checkout's sources.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"bionicdb/internal/obs"
)

func main() {
	workload := flag.String("workload", "", "workload name: paper-1s, scaleout-8s, htap-2s or failover-2s")
	seed := flag.Uint64("seed", 42, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement time budget in host seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run and layer microbenchmarks")
	outDir := flag.String("out", ".bench_build/bionicbench-e2e", "directory for result files, profiles and traces")
	commit := flag.String("commit", "unknown", "source commit, for provenance")
	dirty := flag.String("dirty", "unknown", "whether the source tree had uncommitted changes, for provenance")
	flag.Parse()

	def, err := defineWorkload(*workload, *seed)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: bionicbench-e2e --workload paper-1s|scaleout-8s|htap-2s|failover-2s [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	b := &runner{def: def, budget: time.Duration(*seconds * float64(time.Second)), outDir: *outDir, digests: map[string]string{}}
	var doc *resultDoc
	if *trace == 1 {
		doc, err = b.traced()
	} else {
		doc = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bionicbench-e2e:", err)
		os.Exit(1)
	}
	doc.Provenance = provenance(*commit, *dirty, *seed, *trace)
	doc.Workload = def
	path := filepath.Join(*outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", def.Name, *seed, *trace))
	if err := writeJSON(path, doc); err != nil {
		fmt.Fprintln(os.Stderr, "bionicbench-e2e:", err)
		os.Exit(1)
	}
	for _, p := range doc.Problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := json.Marshal(doc.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bionicbench-e2e:", err)
		os.Exit(1)
	}
	fmt.Printf("result file: %s\n%s\n", path, line)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultDoc is the full result file of one invocation.
type resultDoc struct {
	Provenance map[string]any    `json:"provenance"`
	Workload   workloadDef       `json:"workload"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Problems   []string          `json:"problems,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	// Percentiles records, for each simulated percentile metric, the
	// committed-transaction sample count behind it and the histogram's
	// relative bucket width.
	Percentiles map[string]percentileInfo `json:"percentiles,omitempty"`
	Passes      []passSummary             `json:"passes"`
	Points      []pointSummary            `json:"points"`
	Spans       map[string]spanAgg        `json:"spans,omitempty"`
	Layers      map[string]layerResult    `json:"layer_microbenchmarks,omitempty"`
	HostCPU     *profileSummary           `json:"host_cpu,omitempty"`
}

type percentileInfo struct {
	Samples       int64   `json:"samples"`
	BucketRelWide float64 `json:"bucket_rel_width"`
}

type passSummary struct {
	Traced bool    `json:"traced"`
	WallS  float64 `json:"wall_s"`
	SetupS float64 `json:"setup_s"`
	Events uint64  `json:"events"`
}

type pointSummary struct {
	Engine  string  `json:"engine"`
	Seed    uint64  `json:"sim_seed"`
	WallS   float64 `json:"wall_s"`
	SetupS  float64 `json:"setup_s"`
	Digest  string  `json:"digest"`
	TPS     float64 `json:"sim_tps"`
	Commits int64   `json:"commits"`
	Aborts  int64   `json:"aborts"`
	Events  uint64  `json:"events"`
}

// summary is the result line: the last line of standard output.
func (d *resultDoc) summary() map[string]any {
	return map[string]any{
		"correct":   d.Failed == 0 && d.Attempted > 0,
		"attempted": d.Attempted,
		"failed":    d.Failed,
		"metrics":   d.Metrics,
	}
}

// runner executes passes over the workload's points.
type runner struct {
	def    workloadDef
	budget time.Duration
	outDir string

	digests  map[string]string // per point and seed, from the first run
	attempts int
	failed   int
	problems []string
}

// pass runs every point once under every simulation seed.
func (b *runner) pass() []*pointRun {
	var runs []*pointRun
	b.eachPoint(func(i int, p pointDef, seed uint64) {
		runs = append(runs, b.run(i, p, seed, nil, nil))
	})
	return runs
}

// eachPoint calls fn for every point and simulation seed of a pass, in
// pass order: seed by seed, every point that runs under that seed.
func (b *runner) eachPoint(fn func(i int, p pointDef, seed uint64)) {
	for k, seed := range b.def.Seeds {
		for i, p := range b.def.Points {
			if k < p.Runs {
				fn(i, p, seed)
			}
		}
	}
}

// run executes point i under seed, checks its outputs and compares its
// digest with the point's first run in this invocation.
func (b *runner) run(i int, p pointDef, seed uint64, spans *spanSet, obsOpt *obs.Options) *pointRun {
	// Each point starts from a collected heap, so garbage from the previous
	// point does not land in its timing.
	runtime.GC()
	r := b.def.runPoint(p, seed, spans, obsOpt)
	bad := b.def.checkPoint(r)
	r.release()
	key := fmt.Sprintf("%d/%d", i, seed)
	if d, ok := b.digests[key]; !ok {
		b.digests[key] = r.Digest
	} else if r.Digest != d {
		bad = append(bad, fmt.Sprintf("digest %s differs from the first run's %s", r.Digest, d))
	}
	b.attempts++
	if len(bad) > 0 {
		b.failed++
		for _, s := range bad {
			b.problems = append(b.problems, fmt.Sprintf("%s/%s/seed %d: %s", b.def.Name, p.Engine, seed, s))
		}
	}
	return r
}

func summarize(runs []*pointRun, traced bool) passSummary {
	s := passSummary{Traced: traced}
	for _, r := range runs {
		s.WallS += r.simWall().Seconds()
		s.SetupS += r.Setup.Seconds()
		if r.Res != nil {
			s.Events += r.Res.Events
		}
	}
	return s
}

// untraced measures the end-to-end metrics: passes over the points with
// tracing off until the time budget is spent (at least one), host times as
// medians over passes.
func (b *runner) untraced() *resultDoc {
	start := time.Now()
	var passes []passSummary
	var all [][]*pointRun
	for {
		runs := b.pass()
		all = append(all, runs)
		passes = append(passes, summarize(runs, false))
		per := time.Since(start) / time.Duration(len(passes))
		if time.Since(start)+per > b.budget {
			break
		}
	}
	doc := b.doc(passes, all[0])
	hostMetrics(doc.Metrics, passes, all, &b.def)
	pools := poolByEngine(all[0])
	doc.Percentiles = map[string]percentileInfo{}
	for _, e := range engines {
		simMetrics(doc.Metrics, doc.Percentiles, e, pools[e])
	}
	return doc
}

// doc starts a result document from the passes made.
func (b *runner) doc(passes []passSummary, first []*pointRun) *resultDoc {
	d := &resultDoc{
		Attempted: b.attempts, Failed: b.failed, Problems: b.problems,
		Metrics: map[string]metric{}, Passes: passes,
	}
	for _, r := range first {
		ps := pointSummary{Engine: r.Def.Engine, Seed: r.Seed, Digest: r.Digest, WallS: r.simWall().Seconds(), SetupS: r.Setup.Seconds()}
		if r.Res != nil {
			ps.TPS, ps.Commits, ps.Aborts, ps.Events = r.Res.TPS, r.Res.Commits, r.Res.Aborts, r.Res.Events
		}
		d.Points = append(d.Points, ps)
	}
	return d
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// provenance records which code, toolchain and host produced a result.
func provenance(commit, dirty string, seed uint64, trace int) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"commit":      commit,
		"dirty":       dirty,
		"go_version":  runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"seed":        seed,
		"trace":       trace,
		"host":        host,
		"time_utc":    time.Now().UTC().Format(time.RFC3339),
		"args":        os.Args[1:],
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
