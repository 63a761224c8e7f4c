package kb

import (
	"fmt"
	"testing"
)

// indexedPair is one (ordinal, fact) step of a predicate walk.
type indexedPair struct {
	i int
	f Fact
}

func walkIndexed(s *Store, pred string) []indexedPair {
	var out []indexedPair
	s.ForEachByPredicateIndexed(pred, func(i int, f Fact) bool {
		out = append(out, indexedPair{i, f})
		return true
	})
	return out
}

func walkView(s *Store, pred string) []indexedPair {
	ords, facts := s.PredicateView(pred)
	out := make([]indexedPair, 0, len(ords))
	for _, i := range ords {
		out = append(out, indexedPair{i, facts[i]})
	}
	return out
}

func samePairs(a, b []indexedPair) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].i != b[k].i || a[k].f.Subject != b[k].f.Subject ||
			a[k].f.Predicate != b[k].f.Predicate || !a[k].f.Object.Equal(b[k].f.Object) {
			return false
		}
	}
	return true
}

// checkView asserts that PredicateView yields exactly the (ordinal, fact)
// sequence ForEachByPredicateIndexed walks, for every predicate and for
// one the store has never seen.
func checkView(t *testing.T, s *Store, stage string) {
	t.Helper()
	for _, pred := range append(s.Predicates(), "absent") {
		want, got := walkIndexed(s, pred), walkView(s, pred)
		if !samePairs(want, got) {
			t.Fatalf("%s: view of %q = %v, indexed walk = %v", stage, pred, got, want)
		}
	}
}

func addMixed(s *Store, from, to int) {
	for k := from; k < to; k++ {
		s.MustAdd(fmt.Sprintf("s%d", k%13), fmt.Sprintf("p%d", k%5), Number(float64(k%17)))
		s.MustAdd(fmt.Sprintf("s%d", k%13), "Name", Term(fmt.Sprintf("t%d", k%11)))
	}
}

// TestPredicateViewMatchesIndexedWalk checks the scan view against the
// callback walk after New+Add, after Restore, and after Adds
// interleaved with a restore — and that a view taken earlier still
// yields its prefix of the walk once the store has grown.
func TestPredicateViewMatchesIndexedWalk(t *testing.T) {
	s := New("v")
	addMixed(s, 0, 200) // includes duplicates, which must not enter the index
	checkView(t, s, "New+Add")

	r, err := Restore("v", s.Facts(), s.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	checkView(t, r, "Restore")

	ords, facts := r.PredicateView("p1")
	before := walkIndexed(r, "p1")
	addMixed(r, 150, 400) // overlaps the restored facts: some Adds are duplicates
	checkView(t, r, "Restore+Add")
	for k, i := range ords {
		if i >= len(facts) || facts[i] != before[k].f || i != before[k].i {
			t.Fatalf("earlier view diverged at %d after growth: ordinal %d", k, i)
		}
	}

	r2, err := Restore("v", r.Facts(), r.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	addMixed(r2, 390, 450)
	checkView(t, r2, "Restore+Add+Restore+Add")
}
