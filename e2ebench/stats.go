package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail is read at, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// samples is a set of durations or values, sorted lazily.
type samples struct {
	v      []float64
	sorted bool
}

func (s *samples) add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

func (s *samples) n() int { return len(s.v) }

func (s *samples) sort() {
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
}

// quantile returns the q-th percentile (0..100) by linear interpolation
// between closest ranks, or NaN when there are no samples.
func (s *samples) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	s.sort()
	return quantileSorted(s.v, q)
}

func quantileSorted(v []float64, q float64) float64 {
	if len(v) == 1 {
		return v[0]
	}
	pos := q / 100 * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(v) {
		hi = len(v) - 1
	}
	frac := pos - float64(lo)
	return v[lo] + (v[hi]-v[lo])*frac
}

func (s *samples) median() float64 { return s.quantile(50) }

func (s *samples) mean() float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.v {
		sum += x
	}
	return sum / float64(len(s.v))
}

func (s *samples) sum() float64 {
	sum := 0.0
	for _, x := range s.v {
		sum += x
	}
	return sum
}

// tailPct picks the highest ladder percentile that still has at least
// minBeyond of n samples strictly beyond it. It returns 0 when even the
// median does not qualify.
func tailPct(n int) float64 {
	for _, q := range tailLadder {
		// The epsilon absorbs binary rounding of 100-q (e.g. 0.1).
		if float64(n)*(100-q)/100+1e-9 >= minBeyond {
			return q
		}
	}
	return 0
}

// tail returns the value at tailPct(n) and the percentile used. With too
// few samples for any ladder rung it falls back to the maximum and
// reports percentile 100.
func (s *samples) tail() (value, pct float64) {
	if len(s.v) == 0 {
		return math.NaN(), 0
	}
	q := tailPct(len(s.v))
	if q == 0 {
		s.sort()
		return s.v[len(s.v)-1], 100
	}
	return s.quantile(q), q
}

// windowed splits a phase's observations into equal time windows. A
// statistic read as the median over windows shrugs off a hiccup that
// lands in one window (a GC cycle, a stolen vCPU), which a single
// whole-run percentile does not.
type windowed struct {
	w    []samples
	span time.Duration
}

func newWindowed(phase time.Duration, n int) *windowed {
	if n < 1 {
		n = 1
	}
	return &windowed{w: make([]samples, n), span: phase / time.Duration(n)}
}

// add records v observed at offset at from the phase start.
func (w *windowed) add(at time.Duration, v float64) {
	i := 0
	if w.span > 0 {
		i = int(at / w.span)
	}
	if i < 0 {
		i = 0
	}
	if i >= len(w.w) {
		i = len(w.w) - 1
	}
	w.w[i].add(v)
}

// median returns the median over windows of f applied to each window.
func (w *windowed) median(f func(*samples) float64) float64 {
	var per samples
	for i := range w.w {
		per.add(f(&w.w[i]))
	}
	return per.median()
}

// tail is the median over windows of each window's tail, with the
// percentile the windows were read at.
func (w *windowed) tail() (value, pct float64) {
	v := w.median(func(s *samples) float64 {
		t, q := s.tail()
		if q > pct || pct == 0 {
			pct = q
		}
		return t
	})
	return v, pct
}

// Rate windows are rateWindow long but hold rateMinEvents events on
// average: short enough that a stall of a second or two on a shared box
// moves a few of many windows, not the median, and full enough that
// counting whole events does not quantise the rate.
const (
	rateWindow    = 500 * time.Millisecond
	rateMinEvents = 100
)

// medianRate returns the median over windows of events per second for
// events observed at the offsets at (seconds) in a phase of length dur,
// with the number of windows.
func medianRate(at *samples, dur time.Duration) (float64, int) {
	k := int(dur / rateWindow)
	if m := at.n() / rateMinEvents; m < k {
		k = m
	}
	if k < 1 {
		k = 1
	}
	w := newWindowed(dur, k)
	for _, t := range at.v {
		w.add(time.Duration(t*float64(time.Second)), 1)
	}
	return w.median(func(s *samples) float64 { return float64(s.n()) / w.span.Seconds() }), k
}
