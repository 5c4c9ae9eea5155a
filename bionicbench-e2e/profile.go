package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// hostModules are the host_cpu.<module> groups, in report order: the
// program's packages (hw/* and workload/* each as one group), the Go
// scheduler (goroutine park and handoff, channel operations, futex sleep
// and wake), the garbage collector and allocator, and everything else.
var hostModules = []string{"sim", "sched", "gc", "platform", "btree", "bufferpool", "lockmgr", "wal",
	"txn", "dora", "core", "hw", "columnar", "workload", "obs", "other"}

// profileSummary is a CPU profile's host time grouped by module.
type profileSummary struct {
	TotalMs float64            `json:"total_ms"`
	Samples int64              `json:"samples"`
	Ms      map[string]float64 `json:"ms"`
	// RecoverMs is host time under core.RecoverMeasured: the failover
	// boots' checkpoint restore and log replay.
	RecoverMs float64 `json:"recover_ms"`
}

func (p *profileSummary) share(module string) float64 {
	if p.TotalMs == 0 {
		return 0
	}
	return p.Ms[module] / p.TotalMs
}

func newProfileSummary() *profileSummary {
	out := &profileSummary{Ms: map[string]float64{}}
	for _, m := range hostModules {
		out.Ms[m] = 0
	}
	return out
}

// addFile adds a CPU profile written by runtime/pprof. Each sample goes to
// one module: the innermost frame of a bionicdb package (or the
// benchmark's own, which is "other"), standard-library frames charged to
// their caller; samples whose leaf-side runtime frames are the collector or
// allocator go to gc, and those in scheduler or channel code, or with no
// program frame at all, to sched.
func (p *profileSummary) addFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("cpu profile %s: %w", path, err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile %s: %w", path, err)
	}
	prof, err := parseProfile(b)
	if err != nil {
		return fmt.Errorf("cpu profile %s: %w", path, err)
	}
	for _, s := range prof.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fn := range prof.locs[id] {
				frames = append(frames, prof.strs[prof.funcs[fn]])
			}
		}
		ms := float64(s.value) / 1e6
		p.TotalMs += ms
		p.Samples++
		p.Ms[classify(frames)] += ms
		for _, f := range frames {
			if f == "bionicdb/internal/core.RecoverMeasured" {
				p.RecoverMs += ms
				break
			}
		}
	}
	return nil
}

// classify picks one sample's module from its frames, leaf first.
func classify(frames []string) string {
	sched := false
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "bionicdb/internal/"):
			if sched {
				return "sched"
			}
			return moduleOf(strings.TrimPrefix(f, "bionicdb/internal/"))
		case strings.HasPrefix(f, "main."):
			if sched {
				return "sched"
			}
			return "other"
		case strings.HasPrefix(f, "runtime."):
			if isGC(f) {
				return "gc"
			}
			if isSched(f) {
				sched = true
			}
		}
	}
	// No program frame: the scheduler loop, GC workers or timers.
	return "sched"
}

// moduleOf maps a package-qualified function name under internal/ to its
// module.
func moduleOf(f string) string {
	pkg := f
	if i := strings.IndexAny(pkg, "."); i >= 0 {
		pkg = pkg[:i]
	}
	top := pkg
	if i := strings.IndexByte(top, '/'); i >= 0 {
		top = top[:i]
	}
	for _, m := range hostModules {
		if m == top {
			return m
		}
	}
	return "other"
}

var gcPrefixes = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.(*mheap)", "runtime.(*mcentral)", "runtime.(*mcache)",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.scanobject", "runtime.greyobject",
	"runtime.markroot", "runtime.scanblock", "runtime.scanstack", "runtime.scanframeworker",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.(*mspan",
	"runtime.(*sweepLocked)", "runtime.findObject", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.(*pageAlloc)", "runtime.(*scavenger", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.newarray", "runtime.rawstring", "runtime.rawbyteslice",
}

var schedPrefixes = []string{
	"runtime.park_m", "runtime.schedule", "runtime.findRunnable", "runtime.gopark", "runtime.goready",
	"runtime.ready", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.send",
	"runtime.recv", "runtime.lock", "runtime.unlock", "runtime.futex", "runtime.notesleep",
	"runtime.notewakeup", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mcall",
	"runtime.casgstatus", "runtime.runq", "runtime.netpoll", "runtime.usleep", "runtime.osyield",
	"runtime.gosched", "runtime.goschedImpl", "runtime.semacquire", "runtime.semrelease",
	"runtime.entersyscall", "runtime.exitsyscall", "runtime.handoffp", "runtime.resetspinning",
	"runtime.execute", "runtime.gogo", "runtime.procyield", "runtime.checkTimers", "runtime.stealWork",
	"runtime.mPark", "runtime.acquirep", "runtime.releasep", "runtime.newproc", "runtime.goexit",
}

func isGC(f string) bool    { return hasAnyPrefix(f, gcPrefixes) }
func isSched(f string) bool { return hasAnyPrefix(f, schedPrefixes) }

func hasAnyPrefix(s string, ps []string) bool {
	for _, p := range ps {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// profile is the subset of the pprof protobuf this file reads.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

// parseProfile decodes a pprof Profile message: samples (field 2),
// locations (4), functions (5) and the string table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s profSample
			var vals []uint64
			if err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					vals = appendVarints(vals, w, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locs[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs[id] = name
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcs {
		if n < 0 || int(n) >= len(p.strs) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, varint value (wire type 0) or payload (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, packed (wire
// type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
