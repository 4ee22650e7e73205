package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantValue float64
		wantPct   float64
	}{
		{n: 1, wantValue: 1, wantPct: 100},   // too few: the maximum
		{n: 10, wantValue: 10, wantPct: 100}, // still too few
		{n: 11, wantValue: 1, wantPct: 100.0 / 11},
		{n: 80, wantValue: 70, wantPct: 87.5},
		{n: 100, wantValue: 90, wantPct: 90},
		{n: 320, wantValue: 310, wantPct: 96.875},
		{n: 1000, wantValue: 990, wantPct: 99},
	} {
		v, pct := tail(seq(tc.n))
		if v != tc.wantValue || math.Abs(pct-tc.wantPct) > 1e-9 {
			t.Errorf("tail of 1..%d = %v at p%v, want %v at p%v", tc.n, v, pct, tc.wantValue, tc.wantPct)
		}
		if tc.n > tailBeyond {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond != tailBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
			}
		}
	}
	if v, _ := tail(nil); !math.IsNaN(v) {
		t.Errorf("tail of no samples = %v, want NaN", v)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles(seq(10))
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{Name: "bench.run", Parent: -1, Start: 0, End: 100},
		{Name: "serve.request", Parent: 0, Start: 10, End: 40},
		{Name: "serve.request", Parent: 0, Start: 30, End: 50}, // overlaps the first
		{Name: "fleet.Run", Parent: 0, Start: 60, End: 70},
	}
	self := selfTimes(spans)
	want := map[string]float64{"bench": 50e-9, "serve": 50e-9, "fleet": 10e-9}
	for layer, w := range want {
		if math.Abs(self[layer]-w) > 1e-15 {
			t.Errorf("self time of %s = %v, want %v", layer, self[layer], w)
		}
	}
}

func TestBatchTailStaysTheMaximum(t *testing.T) {
	for _, batch := range []bool{true, false} {
		r := newResult(false)
		setMissTail(r, seq(12), batch)
		want := 2.0 // tail of 12 samples: ten beyond it
		if batch {
			want = 12 // a faster batch program that fits 12 jobs keeps the maximum
		}
		if got := r.values["miss_tail_ms"]; got != want {
			t.Errorf("batch %t: miss_tail_ms %v, want %v", batch, got, want)
		}
	}
}
