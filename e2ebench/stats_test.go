package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPctHasTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},
		{20, 50},
		{39, 50},
		{40, 75},
		{100, 90},
		{199, 90},
		{200, 95},
		{999, 95},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
		{100000, 99.99},
	}
	for _, c := range cases {
		got := tailPct(c.n)
		if got != c.want {
			t.Errorf("tailPct(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 0 && float64(c.n)*(100-got)/100+1e-9 < minBeyond {
			t.Errorf("tailPct(%d) = %g leaves fewer than %d samples beyond it", c.n, got, minBeyond)
		}
	}
}

func TestTailReadsPercentileWithCount(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s.add(float64(i))
	}
	v, q := s.tail()
	if q != 99 {
		t.Fatalf("1000 samples read at p%g, want p99", q)
	}
	if math.Abs(v-990.01) > 1e-9 {
		t.Fatalf("p99 of 1..1000 = %g, want 990.01", v)
	}
	if got := fmtTail(&s, "ms"); got != "p99 = 990 ms (n=1000)" {
		t.Fatalf("fmtTail = %q", got)
	}

	var few samples
	for i := 0; i < 5; i++ {
		few.add(float64(i))
	}
	if v, q := few.tail(); q != 100 || v != 4 {
		t.Fatalf("5 samples: tail %g at p%g, want the maximum 4 at p100", v, q)
	}
}

func TestMedianAndMean(t *testing.T) {
	var s samples
	for _, x := range []float64{5, 1, 4, 2, 3} {
		s.add(x)
	}
	if s.median() != 3 || s.mean() != 3 || s.sum() != 15 {
		t.Fatalf("median %g mean %g sum %g", s.median(), s.mean(), s.sum())
	}
	s.add(100)
	if s.median() != 3.5 {
		t.Fatalf("median after add = %g, want 3.5", s.median())
	}
}

func TestMedianRateWindows(t *testing.T) {
	// 1000 events/s for 4 s, with a 1 s stall in the middle: the stall
	// moves two of eight windows, not the median.
	var at samples
	for i := 0; i < 4000; i++ {
		ts := float64(i) / 1000
		if ts >= 1.5 && ts < 2.5 {
			continue
		}
		at.add(ts)
	}
	rate, k := medianRate(&at, 4*time.Second)
	if k != 8 || math.Abs(rate-1000) > 10 {
		t.Fatalf("rate %g over %d windows, want 1000 over 8", rate, k)
	}
	// Few events: windows grow until each holds about a hundred.
	var few samples
	for i := 0; i < 300; i++ {
		few.add(float64(i) / 75)
	}
	if _, k := medianRate(&few, 4*time.Second); k != 3 {
		t.Fatalf("%d windows for 300 events, want 3", k)
	}
}
