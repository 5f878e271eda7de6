package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailUsesNamedPercentileWhenTenSamplesLieBeyond(t *testing.T) {
	got := tailOf(seq(2000), 99)
	want := Tail{Value: 1980, Pct: 99, N: 2000, Beyond: 20}
	if got != want {
		t.Fatalf("tailOf(2000 samples, 99) = %+v, want %+v", got, want)
	}
	// Exactly ten beyond still qualifies.
	if got := tailOf(seq(1000), 99); got.Value != 990 || got.Beyond != 10 || got.Pct != 99 {
		t.Fatalf("tailOf(1000 samples, 99) = %+v, want p99 = 990 with 10 beyond", got)
	}
}

func TestTailCapsAtHighestPercentileWithTenBeyond(t *testing.T) {
	got := tailOf(seq(300), 99)
	if got.Value != 290 || got.Beyond != 10 || got.N != 300 {
		t.Fatalf("tailOf(300 samples, 99) = %+v, want rank 290 with 10 beyond", got)
	}
	if got.Pct < 96.66 || got.Pct > 96.67 {
		t.Fatalf("reported percentile %v, want 96.67", got.Pct)
	}
	// A p95 of 300 samples leaves 15 beyond and is not capped.
	if got := tailOf(seq(300), 95); got.Value != 285 || got.Beyond != 15 {
		t.Fatalf("tailOf(300 samples, 95) = %+v, want 285 with 15 beyond", got)
	}
}

func TestTailOfTinySampleIsTheMaximum(t *testing.T) {
	for _, n := range []int{1, 5, 10} {
		got := tailOf(seq(n), 99)
		if got.Value != float64(n) || got.Beyond != 0 || got.Pct != 100 {
			t.Fatalf("tailOf(%d samples) = %+v, want the maximum with 0 beyond", n, got)
		}
	}
	if got := tailOf(seq(11), 99); got.Value != 1 || got.Beyond != 10 {
		t.Fatalf("tailOf(11 samples) = %+v, want the minimum with 10 beyond", got)
	}
	if got := tailOf(nil, 99); got != (Tail{}) {
		t.Fatalf("tailOf(empty) = %+v, want zero", got)
	}
}

func TestPercentileIsNotCapped(t *testing.T) {
	if got := percentile(seq(4), 50); got.Value != 2 || got.Beyond != 2 {
		t.Fatalf("percentile(4 samples, 50) = %+v, want 2 with 2 beyond", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestSummarizeSplitsDriftAtWindowMidpoint(t *testing.T) {
	var samples []Sample
	for i := 0; i < 100; i++ {
		lat := time.Millisecond
		if i >= 50 {
			lat = 3 * time.Millisecond
		}
		samples = append(samples, Sample{Due: time.Duration(i) * 100 * time.Millisecond, Latency: lat})
	}
	cs := summarize(samples, 10*time.Second)
	if cs.FirstHalfP50 != 1 || cs.SecondHalfP50 != 3 {
		t.Fatalf("halves = %v / %v ms, want 1 / 3", cs.FirstHalfP50, cs.SecondHalfP50)
	}
	if cs.P50.Value != 1 || cs.PooledP99.Value != 3 || cs.PooledP99.Beyond != 10 {
		t.Fatalf("p50 %+v pooled p99 %+v", cs.P50, cs.PooledP99)
	}
	// 100 samples support a single p99 slice: the pooled tail.
	if cs.P99Slices != 1 || cs.P99 != cs.PooledP99 {
		t.Fatalf("p99 over %d slices = %+v, want the pooled tail %+v", cs.P99Slices, cs.P99, cs.PooledP99)
	}
}

func TestTailSlicesLeaveTenBeyondInEach(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 99, 1}, {999, 99, 1}, {2000, 99, 2}, {4800, 99, 4}, {50000, 99, 8},
		{240, 95, 1}, {400, 95, 2}, {1200, 95, 6}, {10, 95, 1}, {0, 99, 1},
	} {
		if got := tailSlices(c.n, c.p); got != c.want {
			t.Errorf("tailSlices(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestSliceMedianTailIgnoresOneStalledSlice(t *testing.T) {
	var samples []Sample
	for i := 0; i < 4000; i++ {
		lat := time.Duration(1+i%100) * time.Millisecond / 10 // 0.1..10 ms, repeating
		due := time.Duration(i) * 5 * time.Millisecond        // 20 s window
		if due >= 5*time.Second && due < 5*time.Second+250*time.Millisecond {
			lat = 80 * time.Millisecond // a stall in the second slice
		}
		samples = append(samples, Sample{Due: due, Latency: lat})
	}
	cs := summarize(samples, 20*time.Second)
	if cs.P99Slices != 4 {
		t.Fatalf("%d p99 slices for 4000 samples, want 4", cs.P99Slices)
	}
	if cs.P99.Value != 9.9 {
		t.Fatalf("slice-median p99 = %v ms, want 9.9 (the quiet slices' p99)", cs.P99.Value)
	}
	if cs.PooledP99.Value != 80 {
		t.Fatalf("pooled p99 = %v ms, want the stall's 80", cs.PooledP99.Value)
	}
}
