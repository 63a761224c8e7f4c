package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
// A tail estimate resting on fewer is mostly noise, so the helper
// refuses it rather than print it.
const minBeyond = 10

// dist is a sorted sample set.
type dist struct{ sorted []float64 }

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{sorted: s}
}

// n is the sample count, reported beside every percentile.
func (d dist) n() int { return len(d.sorted) }

// beyond is how many samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// percentile returns the nearest-rank q-quantile (0 < q < 1). It fails
// unless at least minBeyond samples lie above it.
func (d dist) percentile(q float64) (float64, error) {
	n := len(d.sorted)
	if b := beyond(n, q); n == 0 || b < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; %d samples leave %d", q*100, minBeyond, n, max(b, 0))
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return d.sorted[max(i, 0)], nil
}

// median is the 0.5 percentile under the same sample rule.
func (d dist) median() (float64, error) { return d.percentile(0.5) }

// medianOf is the plain median of a handful of values (repeated set-ups,
// where the tail rule does not apply).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }

// overheadSample is one operation's duration, traced or not, keyed by
// what it did (its query text), for overheadPct.
type overheadSample struct {
	key    string
	traced bool
	dur    float64
}

// overheadPct estimates what tracing adds to an operation, in percent:
// per key with at least three samples on each side, the traced median
// minus the untraced median, summed with each key weighted by its
// sample count, over the same weighting of untraced medians. Comparing
// within a key keeps a mix of cheap and costly operations from swinging
// the medians.
func overheadPct(samples []overheadSample) float64 {
	type sides struct{ traced, plain []float64 }
	byKey := map[string]*sides{}
	for _, s := range samples {
		k := byKey[s.key]
		if k == nil {
			k = &sides{}
			byKey[s.key] = k
		}
		if s.traced {
			k.traced = append(k.traced, s.dur)
		} else {
			k.plain = append(k.plain, s.dur)
		}
	}
	var extra, base float64
	for _, k := range byKey {
		if len(k.traced) < 3 || len(k.plain) < 3 {
			continue
		}
		w := float64(len(k.traced) + len(k.plain))
		extra += w * (medianOf(k.traced) - medianOf(k.plain))
		base += w * medianOf(k.plain)
	}
	return ratio(extra, base) * 100
}
