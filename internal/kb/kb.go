// Package kb is the knowledge-base substrate beneath each source ontology
// (EDBT 2000, §2.1, Fig. 1: the knowledge bases KB1..KB3 under the
// ontology graphs).
//
// ONION's query system reformulates articulation-level queries and
// executes them "against the sources involved"; something must hold the
// instance data those plans scan. The paper's sources are external (web
// sources, databases); this in-memory triple store is the synthetic
// equivalent that exercises the same plan/scan/join path.
package kb

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// ValueKind discriminates Value.
type ValueKind uint8

// Value kinds: a term (node in some ontology/KB), a string literal, or a
// numeric literal.
const (
	KindTerm ValueKind = iota
	KindString
	KindNumber
)

// Value is an object position of a fact: a term name, a string literal or
// a number.
type Value struct {
	Kind ValueKind
	Str  string
	Num  float64
}

// Term builds a term value.
func Term(name string) Value { return Value{Kind: KindTerm, Str: name} }

// String builds a string-literal value. (Shadowing the fmt.Stringer name
// is deliberate: kb.String("x") reads as a constructor, and Value itself
// implements fmt.Stringer via Format.)
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Number builds a numeric value.
func Number(n float64) Value { return Value{Kind: KindNumber, Num: n} }

// IsTerm reports whether the value is a term.
func (v Value) IsTerm() bool { return v.Kind == KindTerm }

// IsNumber reports whether the value is numeric.
func (v Value) IsNumber() bool { return v.Kind == KindNumber }

// Format renders the value: terms bare, strings quoted, numbers in
// minimal decimal form.
func (v Value) Format() string {
	switch v.Kind {
	case KindString:
		return strconv.Quote(v.Str)
	case KindNumber:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	default:
		return v.Str
	}
}

// Equal compares values strictly (kind and payload).
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	if v.Kind == KindNumber {
		return v.Num == w.Num
	}
	return v.Str == w.Str
}

// Less orders values deterministically: by kind, then payload.
func (v Value) Less(w Value) bool {
	if v.Kind != w.Kind {
		return v.Kind < w.Kind
	}
	if v.Kind == KindNumber {
		return v.Num < w.Num
	}
	return v.Str < w.Str
}

// Fact is one (subject, predicate, object) statement about instances.
type Fact struct {
	Subject   string
	Predicate string
	Object    Value
}

// String renders the fact.
func (f Fact) String() string {
	return fmt.Sprintf("%s %s %s", f.Subject, f.Predicate, f.Object.Format())
}

// Journal receives every effective insert of a durable store before it
// is applied, in insertion order, carrying the epoch the store will be
// at once the fact lands. An Append error vetoes the insert: the store
// is unchanged and Add returns the error, so the in-memory state is
// always a prefix-closed subset of what the journal accepted
// (write-ahead semantics). internal/persist implements it with an
// append-only fact log.
type Journal interface {
	Append(f Fact, epoch uint64) error
}

// Store is an indexed in-memory fact store for one knowledge source. The
// zero value is not usable; call New (or Restore, for recovery paths).
// The //onion:index markers below declare the store's query-visible
// state for the epochbump analyzer: an exported method that writes a
// marked field without touching the epoch is rejected by onionlint
// (the PR 6 dedup bug was exactly such a skipped bump). Scratch fields
// (keyBuf) and non-state wiring (journal) stay unmarked.
type Store struct {
	name   string
	facts  []Fact           //onion:index
	bySubj map[string][]int //onion:index
	byPred map[string][]int //onion:index
	// existing is the dedup index, keyed by factKey — a kind-tagged,
	// length-framed identity (NOT Fact.String(), whose Format()
	// rendering collides distinct values: Term("3000") and Number(3000)
	// both render `3000`). nil after Restore until the first Add needs
	// it; see ensureDedup.
	existing map[string]struct{} //onion:index
	keyBuf   []byte              // factKey scratch, reused across Adds
	journal  Journal             // nil unless the store is durable (SetJournal)
	// epoch counts effective mutations (facts actually inserted; ignored
	// duplicates do not bump it). Query engines validate their cached
	// plans against it, and the serving layer's result cache keys on it.
	epoch atomic.Uint64
}

// New returns an empty store named after its knowledge source (usually
// the owning ontology).
func New(name string) *Store {
	return &Store{
		name:     name,
		bySubj:   make(map[string][]int),
		byPred:   make(map[string][]int),
		existing: make(map[string]struct{}),
	}
}

// Restore rebuilds a store from recovered facts at a recorded epoch —
// the persistence layer's cold-start constructor. The facts are trusted
// to be valid and mutually distinct (a fact log only ever records
// effective inserts, so snapshot+log replay satisfies this by
// construction): Restore builds the scan indexes directly and defers the
// dedup index until the first post-restore Add needs it, which is what
// makes loading a snapshot measurably cheaper than re-Adding every fact
// (E16). epoch must be at least len(facts) — every insert bumped it once.
func Restore(name string, facts []Fact, epoch uint64) (*Store, error) {
	s := New(name)
	s.existing = nil // rebuilt lazily by ensureDedup
	s.facts = append(s.facts, facts...)
	for i, f := range facts {
		if f.Subject == "" || f.Predicate == "" {
			return nil, fmt.Errorf("kb %s: restore: fact %d needs subject and predicate", name, i)
		}
		s.bySubj[f.Subject] = append(s.bySubj[f.Subject], i)
		s.byPred[f.Predicate] = append(s.byPred[f.Predicate], i)
	}
	if epoch < uint64(len(facts)) {
		return nil, fmt.Errorf("kb %s: restore: epoch %d below %d recovered inserts", name, epoch, len(facts))
	}
	s.epoch.Store(epoch)
	return s, nil
}

// SetJournal makes the store durable: every subsequent effective insert
// is offered to j before it is applied (see Journal). Facts already in
// the store are not replayed — the persistence layer snapshots them
// instead. Passing nil detaches the journal.
func (s *Store) SetJournal(j Journal) { s.journal = j }

// Name returns the store's source name.
func (s *Store) Name() string { return s.name }

// Len returns the number of facts.
func (s *Store) Len() int { return len(s.facts) }

// Epoch returns the store's mutation epoch: bumped by every fact actually
// inserted (a duplicate Add leaves it unchanged). Epoch reads are atomic
// and may run concurrently with other readers; mutation itself remains
// single-writer, serialised by the store's owner.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// factKey appends f's dedup identity to buf: subject and predicate
// length-framed, the object kind-tagged — so the key is injective
// exactly up to Value.Equal. The seed keyed on Fact.String(), whose
// Format() rendering is kind-blind and framing-ambiguous: Term("3000")
// vs Number(3000) and Term(`"x"`) vs String("x") rendered identically,
// so the second distinct fact was silently dropped and the epoch never
// bumped — the serving layer then provably served stale cached rows.
// Numbers key on the IEEE bit image with -0 canonicalised to +0, because
// Value.Equal (Num == Num) calls them equal; NaN objects never reach
// this key (see Add).
func factKey(buf []byte, f Fact) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(f.Subject)))
	buf = append(buf, f.Subject...)
	buf = binary.AppendUvarint(buf, uint64(len(f.Predicate)))
	buf = append(buf, f.Predicate...)
	buf = append(buf, byte(f.Object.Kind))
	if f.Object.Kind == KindNumber {
		bits := math.Float64bits(f.Object.Num)
		if f.Object.Num == 0 {
			bits = 0 // +0 and -0 are Equal, so they share one key
		}
		return binary.BigEndian.AppendUint64(buf, bits)
	}
	return append(buf, f.Object.Str...)
}

// ensureDedup materialises the dedup index when a restored store first
// needs it (Restore defers it so cold starts serve immediately).
func (s *Store) ensureDedup() {
	if s.existing != nil {
		return
	}
	s.existing = make(map[string]struct{}, len(s.facts))
	for _, f := range s.facts {
		if f.Object.IsNumber() && math.IsNaN(f.Object.Num) {
			continue
		}
		s.keyBuf = factKey(s.keyBuf[:0], f)
		s.existing[string(s.keyBuf)] = struct{}{}
	}
}

// Add inserts a fact (duplicates are ignored). Empty subjects or
// predicates are rejected. Duplicate detection follows Value.Equal
// exactly: kind-strict (Term("3000") and Number(3000) are distinct
// facts), +0 and -0 are one value, and a NaN object never equals any
// existing fact — including a byte-identical one — so NaN facts always
// insert. On a durable store the insert is offered to the journal first;
// a journal error leaves the store unchanged.
func (s *Store) Add(subject, predicate string, object Value) error {
	if subject == "" || predicate == "" {
		return fmt.Errorf("kb %s: fact needs subject and predicate", s.name)
	}
	f := Fact{Subject: subject, Predicate: predicate, Object: object}
	dedupable := !(object.Kind == KindNumber && math.IsNaN(object.Num))
	if dedupable {
		s.ensureDedup()
		s.keyBuf = factKey(s.keyBuf[:0], f)
		if _, dup := s.existing[string(s.keyBuf)]; dup {
			return nil
		}
	}
	if s.journal != nil {
		if err := s.journal.Append(f, s.epoch.Load()+1); err != nil {
			return fmt.Errorf("kb %s: journal: %w", s.name, err)
		}
	}
	if dedupable {
		s.existing[string(s.keyBuf)] = struct{}{}
	}
	idx := len(s.facts)
	s.facts = append(s.facts, f)
	s.bySubj[subject] = append(s.bySubj[subject], idx)
	s.byPred[predicate] = append(s.byPred[predicate], idx)
	s.epoch.Add(1)
	return nil
}

// MustAdd is Add for fixtures; it panics on error.
func (s *Store) MustAdd(subject, predicate string, object Value) {
	if err := s.Add(subject, predicate, object); err != nil {
		panic(err)
	}
}

// Match returns facts matching the given constraints; empty subject or
// predicate and nil object match anything. Results are sorted.
func (s *Store) Match(subject, predicate string, object *Value) []Fact {
	var idxs []int
	switch {
	case subject != "":
		idxs = s.bySubj[subject]
	case predicate != "":
		idxs = s.byPred[predicate]
	default:
		idxs = make([]int, len(s.facts))
		for i := range s.facts {
			idxs[i] = i
		}
	}
	var out []Fact
	for _, i := range idxs {
		f := s.facts[i]
		if subject != "" && f.Subject != subject {
			continue
		}
		if predicate != "" && f.Predicate != predicate {
			continue
		}
		if object != nil && !f.Object.Equal(*object) {
			continue
		}
		out = append(out, f)
	}
	SortFacts(out)
	return out
}

// CountByPredicate returns the number of facts carrying the predicate
// without materialising them — the query planner's selectivity probe.
func (s *Store) CountByPredicate(pred string) int { return len(s.byPred[pred]) }

// CountBySubject returns the number of facts about the subject without
// materialising them.
func (s *Store) CountBySubject(subject string) int { return len(s.bySubj[subject]) }

// ForEach streams every fact in insertion order without copying or
// sorting; fn returning false stops the walk.
func (s *Store) ForEach(fn func(Fact) bool) {
	for _, f := range s.facts {
		if !fn(f) {
			return
		}
	}
}

// ForEachByPredicate streams the facts carrying the predicate via the
// predicate index; fn returning false stops the walk.
func (s *Store) ForEachByPredicate(pred string, fn func(Fact) bool) {
	for _, i := range s.byPred[pred] {
		if !fn(s.facts[i]) {
			return
		}
	}
}

// ForEachByPredicateIndexed is ForEachByPredicate with each fact's store
// ordinal: callers that maintain fact-aligned caches (the query engine's
// qualified-term cache) key them by ordinal. The fact log is append-only
// — Add appends, duplicates are rejected, nothing reorders — so a cache
// built at one epoch stays valid for every ordinal below its length.
func (s *Store) ForEachByPredicateIndexed(pred string, fn func(i int, f Fact) bool) {
	for _, i := range s.byPred[pred] {
		if !fn(i, s.facts[i]) {
			return
		}
	}
}

// PredicateView is ForEachByPredicateIndexed as a slice range, for scans
// that walk the index in a plain loop instead of through a callback:
// ords lists, in index order, the store ordinals of the facts carrying
// the predicate, and facts[i] is the fact at ordinal i. Both slices are
// the store's own and strictly read-only — a caller must never write
// through them. The view stays valid while the store grows, but only
// below its length: the fact log is append-only (Add appends, duplicates
// are rejected, nothing reorders or rewrites), so every ordinal in ords
// keeps indexing the same fact, while facts added after the call are
// simply not in the view.
func (s *Store) PredicateView(pred string) (ords []int, facts []Fact) {
	return s.byPred[pred], s.facts
}

// ForEachBySubject streams the facts about the subject via the subject
// index; fn returning false stops the walk.
func (s *Store) ForEachBySubject(subject string, fn func(Fact) bool) {
	for _, i := range s.bySubj[subject] {
		if !fn(s.facts[i]) {
			return
		}
	}
}

// Facts returns every fact, sorted.
func (s *Store) Facts() []Fact {
	out := append([]Fact(nil), s.facts...)
	SortFacts(out)
	return out
}

// Subjects returns the distinct subjects, sorted.
func (s *Store) Subjects() []string {
	out := make([]string, 0, len(s.bySubj))
	for subj := range s.bySubj {
		out = append(out, subj)
	}
	sort.Strings(out)
	return out
}

// Predicates returns the distinct predicates, sorted.
func (s *Store) Predicates() []string {
	out := make([]string, 0, len(s.byPred))
	for p := range s.byPred {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// String renders a sorted dump.
func (s *Store) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kb %s (%d facts)\n", s.name, len(s.facts))
	for _, f := range s.Facts() {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// SortFacts orders facts by (Subject, Predicate, Object).
func SortFacts(fs []Fact) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Predicate != b.Predicate {
			return a.Predicate < b.Predicate
		}
		return a.Object.Less(b.Object)
	})
}
