package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: the helper must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	d := newDist(seq(1000))
	if d.n() != 1000 {
		t.Fatalf("sample count %d, want 1000", d.n())
	}
	p99, err := d.percentile(0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if p99 != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (nearest rank)", p99)
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Fatalf("beyond(1000, .99) = %d, want 10", b)
	}
	if _, err := newDist(seq(999)).percentile(0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond it; want an error")
	}
	if _, err := newDist(seq(199)).percentile(0.95); err == nil {
		t.Fatal("p95 of 199 samples leaves 9 beyond it; want an error")
	}
	if _, err := newDist(seq(200)).percentile(0.95); err != nil {
		t.Fatalf("p95 of 200 samples: %v", err)
	}
	if _, err := newDist(nil).median(); err == nil {
		t.Fatal("median of no samples: want an error")
	}
	m, err := newDist(seq(20)).median()
	if err != nil || m != 10 {
		t.Fatalf("median of 1..20 = %v, %v; want 10", m, err)
	}
}

func TestMedianOf(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := medianOf(c.xs); got != c.want {
			t.Errorf("medianOf(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestOverheadPctComparesWithinKeys(t *testing.T) {
	var s []overheadSample
	// A cheap and a costly key, traced 10% slower each; the traced side
	// over-samples the costly key, which a pooled median would mistake
	// for a large overhead.
	for i := 0; i < 9; i++ {
		s = append(s, overheadSample{"cheap", false, 1}, overheadSample{"costly", false, 100})
		s = append(s, overheadSample{"costly", true, 110})
	}
	for i := 0; i < 3; i++ {
		s = append(s, overheadSample{"cheap", true, 1.1})
	}
	got := overheadPct(s)
	if got < 9.9 || got > 10.1 {
		t.Fatalf("overheadPct = %v, want 10", got)
	}
}
