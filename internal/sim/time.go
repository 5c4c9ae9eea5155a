// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel. All engine and hardware-model code in bionicdb runs on
// this kernel: simulated processes are coroutines that execute strictly one
// at a time under a virtual clock, so simulations are reproducible
// bit-for-bit for a given seed and shared state needs no locking.
//
// The virtual clock counts picoseconds. Sub-nanosecond resolution matters
// because a single CPU cycle at 2.5 GHz is 400 ps and the cost model charges
// individual instruction and cache events.
package sim

import "fmt"

// Time is an absolute simulation timestamp in picoseconds since the start of
// the run.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Nanoseconds returns the duration as a floating-point number of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds returns the duration as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// String renders the duration with an auto-selected unit, e.g. "1.50us".
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
	case d >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(d)/float64(Nanosecond))
	}
	return fmt.Sprintf("%dps", int64(d))
}

// String renders the timestamp like a Duration measured from time zero.
func (t Time) String() string { return Duration(t).String() }

// Sub returns the duration t - u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns the timestamp t + d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// PerSecond converts an event count over a span into an events-per-second
// rate. It returns 0 for an empty span.
func PerSecond(events int64, span Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(events) / span.Seconds()
}
