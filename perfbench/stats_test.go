package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	cases := []struct {
		p    float64
		want float64
		ok   bool
	}{
		{50, 50, true},  // rank 50, 50 beyond
		{90, 90, true},  // rank 90, 10 beyond
		{91, 91, false}, // rank 91, only 9 beyond
		{99, 99, false},
		{100, 100, false},
		{1, 1, true},
	}
	for _, c := range cases {
		got, ok := percentile(xs, c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("p%v = %v (reportable %v), want %v (%v)", c.p, got, ok, c.want, c.ok)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestPercentileSmallSamples(t *testing.T) {
	if _, ok := percentile(nil, 50); ok {
		t.Error("empty sample reported a median")
	}
	// Nearest rank never interpolates: the median of 1..4 is 2.
	if got, _ := percentile([]float64{4, 3, 2, 1}, 50); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2", got)
	}
	if _, ok := percentile(make([]float64, 19), 50); ok {
		t.Error("median of 19 samples has only 9 beyond it but was reportable")
	}
	if got := minSamples(50); got != 20 {
		t.Errorf("minSamples(50) = %d, want 20", got)
	}
	if got := minSamples(99); got != 1000 {
		t.Errorf("minSamples(99) = %d, want 1000", got)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 100}); g < 9.999999 || g > 10.000001 {
		t.Errorf("geomean(1, 100) = %v, want 10", g)
	}
	// Doubling every cheap kind doubles the mean of a set the dearest
	// kind would otherwise dominate.
	base := []float64{1, 2, 4, 1000}
	slow := []float64{2, 4, 8, 1000}
	if r := geomean(slow) / geomean(base); r < 1.68 || r > 1.69 {
		t.Errorf("ratio %v, want 2^(3/4) ≈ 1.682", r)
	}
}
