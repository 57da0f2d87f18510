package sim

import "fmt"

// Time is simulated time in nanoseconds since the start of the run.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = Time

// Unit constructors.
func Nanoseconds(n float64) Duration  { return Duration(n) }
func Microseconds(u float64) Duration { return Duration(u * 1e3) }
func Milliseconds(m float64) Duration { return Duration(m * 1e6) }
func SecondsDur(s float64) Duration   { return Duration(s * 1e9) }

// Seconds converts a Time/Duration to float seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Millis converts to float milliseconds.
func (t Time) Millis() float64 { return float64(t) / 1e6 }

// Micros converts to float microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

func (t Time) String() string {
	switch {
	case t >= 1e9:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= 1e6:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= 1e3:
		return fmt.Sprintf("%.3fµs", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// MaxTime returns the later of the given times.
func MaxTime(ts ...Time) Time {
	var m Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// Resource is a serially reusable device (a GPU stream, a PCIe link, the
// CPU memory subsystem, the accelerator). Zero value is a free resource at
// time 0.
type Resource struct {
	Name string
	free Time
}

// NewResource returns a named resource, free from time 0.
func NewResource(name string) *Resource { return &Resource{Name: name} }

// Free returns the time at which the resource next becomes available.
func (r *Resource) Free() Time { return r.free }

// Schedule books the resource for d starting no earlier than ready, and
// returns the booked [start, end) interval. d must be non-negative.
func (r *Resource) Schedule(ready Time, d Duration) (start, end Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative duration %d on %s", d, r.Name))
	}
	start = ready
	if r.free > start {
		start = r.free
	}
	end = start + d
	r.free = end
	return start, end
}

// Reset makes the resource free at time 0 again.
func (r *Resource) Reset() { r.free = 0 }
