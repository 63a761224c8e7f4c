// Package core is the ONION data layer (EDBT 2000, §2, Fig. 1): the
// registry that "manages the ontology representations, the articulations
// and the rule sets involved and the rules required for query processing",
// and the entry point that wires the other components together — wrappers
// feed ontologies in, SKAT proposes articulation rules, the articulation
// engine materialises articulations, the algebra composes ontologies, and
// the query system answers articulation-level queries against the sources.
package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"repro/internal/algebra"
	"repro/internal/articulation"
	"repro/internal/inference"
	"repro/internal/kb"
	"repro/internal/lexicon"
	"repro/internal/ontology"
	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/rowcodec"
	"repro/internal/rules"
	"repro/internal/skat"
	"repro/internal/vfs"
	"repro/internal/wrapper"
)

// System is one ONION instance: a set of registered source ontologies,
// their knowledge bases, and the articulations generated between them.
// Articulation ontologies are registered as ordinary sources, so they
// compose: an articulation can be articulated with a further source
// (§4.2).
//
// A System is safe for concurrent use: read operations (Query, Explain,
// lookups, algebra) run concurrently, while mutating operations
// (Register, RegisterKB, Load, Drop, Articulate, Regenerate, Infer,
// AddFacts, SetLexicon) serialise against everything else. Structural
// mutations (source set or wiring changes) invalidate the cached query
// engines wholesale; data mutations (AddFacts, Infer) rely on per-source
// epochs instead — engines validate their caches at query entry and
// rebuild only the mutated sources' state. Callers must not mutate an
// *Ontology or *Store obtained from the registry while other goroutines
// query the system; mutate through the System (AddFacts, Infer, ...) or
// quiesce queries first.
type System struct {
	mu         sync.RWMutex
	ontologies map[string]*ontology.Ontology
	kbs        map[string]*kb.Store
	arts       map[string]*articulation.Articulation
	lex        *lexicon.Lexicon

	// engMu guards the query-engine cache. Engines carry compiled-plan
	// and scan-index caches, so System reuses one engine per
	// articulation until a mutation invalidates it. Lock order: s.mu
	// before engMu, never the reverse.
	engMu   sync.Mutex
	engines map[string]*query.Engine

	// Persistence (OpenDir): when pdir is non-nil, every knowledge base
	// is durable — recovered at open, write-through journaled on Add,
	// snapshotted whenever its log outgrows snapshotEvery records.
	// Guarded by s.mu (persistence state only changes under mutators).
	pdir          *persist.Dir
	psrcs         map[string]*persist.Source
	snapshotEvery int
}

// NewSystem returns an empty system using the embedded default lexicon
// for SKAT suggestions.
func NewSystem() *System {
	return &System{
		ontologies: make(map[string]*ontology.Ontology),
		kbs:        make(map[string]*kb.Store),
		arts:       make(map[string]*articulation.Articulation),
		lex:        lexicon.DefaultLexicon(),
		engines:    make(map[string]*query.Engine),
	}
}

// invalidateEnginesLocked drops the cached query engines; callers hold
// s.mu for writing.
func (s *System) invalidateEnginesLocked() {
	s.engMu.Lock()
	s.engines = make(map[string]*query.Engine)
	s.engMu.Unlock()
}

// SetLexicon replaces the semantic lexicon used for suggestions.
func (s *System) SetLexicon(l *lexicon.Lexicon) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lex = l
}

// Lexicon returns the system's semantic lexicon.
func (s *System) Lexicon() *lexicon.Lexicon {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lex
}

// Register adds a source ontology. Names must be unique.
func (s *System) Register(o *ontology.Ontology) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o == nil {
		return fmt.Errorf("core: nil ontology")
	}
	if err := o.Validate(); err != nil {
		return fmt.Errorf("core: register %s: %w", o.Name(), err)
	}
	if _, dup := s.ontologies[o.Name()]; dup {
		return fmt.Errorf("core: ontology %q already registered", o.Name())
	}
	s.ontologies[o.Name()] = o
	s.invalidateEnginesLocked()
	return nil
}

// RegisterKB attaches a knowledge base to a registered ontology of the
// same name.
func (s *System) RegisterKB(store *kb.Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if store == nil {
		return fmt.Errorf("core: nil knowledge base")
	}
	if _, ok := s.ontologies[store.Name()]; !ok {
		return fmt.Errorf("core: knowledge base %q has no registered ontology", store.Name())
	}
	s.kbs[store.Name()] = store
	// Attaching (or swapping) a store rewires cached engines' Source
	// pointers — that is a structural change epochs cannot see.
	s.invalidateEnginesLocked()
	return nil
}

// AddFact inserts one instance fact into a registered source's knowledge
// base, creating the store on first use. It is the serving layer's
// mutation path: the write serialises against in-flight queries, the
// store's epoch bump invalidates exactly the affected cached state
// (engines validate epochs at query entry, and epoch-keyed result-cache
// entries stop matching), and no engine is rebuilt unless the store was
// newly attached.
func (s *System) AddFact(source, subject, predicate string, object kb.Value) error {
	_, err := s.AddFacts(source, []kb.Fact{{Subject: subject, Predicate: predicate, Object: object}})
	return err
}

// AddFacts is AddFact over a batch, returning how many facts were
// actually inserted (duplicates are ignored and do not bump the epoch).
//
// The batch is not atomic: facts apply in order, and on the first error
// the insertion stops — the returned count is exactly the facts that
// landed (and, on a durable system, were journaled) before the failure,
// so `added` is meaningful even when err != nil. Callers surfacing both
// (the serving layer's mutation counter, oniond's /mutate) count the
// returned value, never len(facts).
func (s *System) AddFacts(source string, facts []kb.Fact) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ontologies[source]; !ok {
		return 0, fmt.Errorf("core: unknown ontology %q", source)
	}
	store, ok := s.kbs[source]
	if !ok {
		store = kb.New(source)
		if s.pdir != nil {
			src, err := s.pdir.Source(source)
			if err != nil {
				return 0, err
			}
			s.psrcs[source] = src
			store.SetJournal(src)
		}
		s.kbs[source] = store
		// A newly attached store rewires cached engines (they captured a
		// nil KB pointer at build time) — structural, not epoch-visible.
		s.invalidateEnginesLocked()
	}
	added := 0
	for _, f := range facts {
		before := store.Epoch()
		if err := store.Add(f.Subject, f.Predicate, f.Object); err != nil {
			return added, err
		}
		if store.Epoch() != before {
			added++
		}
	}
	// Periodic snapshot: once the log outgrows the threshold, fold it
	// into a fresh snapshot so recovery replay stays bounded. Runs under
	// the mutator lock, so the fact set and epoch are consistent.
	if src := s.psrcs[source]; src != nil && src.LogRecords() >= s.snapshotThreshold() {
		if err := src.Snapshot(store.Facts(), store.Epoch()); err != nil {
			return added, err
		}
	}
	return added, nil
}

// DefaultSnapshotEvery is how many log records a durable source
// accumulates before AddFacts folds them into a fresh snapshot.
const DefaultSnapshotEvery = 1 << 16

func (s *System) snapshotThreshold() int {
	if s.snapshotEvery > 0 {
		return s.snapshotEvery
	}
	return DefaultSnapshotEvery
}

// SetSnapshotEvery overrides the periodic-snapshot threshold (records in
// a source's log before AddFacts snapshots it); n <= 0 restores the
// default.
func (s *System) SetSnapshotEvery(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshotEvery = n
}

// RecoveryStats reports what OpenDir did.
type RecoveryStats struct {
	// Recovered lists sources loaded from disk, with the fact count and
	// epoch they came back at and any torn log tail truncated.
	Recovered []RecoveredSource
	// Bootstrapped lists registered knowledge bases that had no disk
	// state yet: their current facts were snapshotted so a restart
	// reproduces them even though they predate the journal.
	Bootstrapped []string
	// Skipped lists on-disk sources with no registered ontology; their
	// files are left untouched.
	Skipped []string
}

// RecoveredSource is one source's recovery outcome.
type RecoveredSource struct {
	Name           string
	Facts          int
	Epoch          uint64
	TruncatedBytes int64
}

// OpenDir makes the system durable against the given directory: every
// source with on-disk state is recovered (snapshot plus log tail, torn
// tails truncated, checksums verified) and every knowledge base —
// recovered, already registered, or created later by AddFacts — becomes
// write-through journaled, with periodic snapshots bounding the log.
//
// Recovery composes with in-code world loading (oniond -fig2 then
// -data-dir): a source registered with baseline facts AND found on disk
// comes back as the union — the durable state wins the store identity,
// then baseline facts missing from it are re-added (and journaled) like
// any fresh insert, so fixture growth across versions is not lost.
// On-disk sources whose ontology is not registered are skipped, not
// deleted. Call after the world is registered and before serving.
func (s *System) OpenDir(root string) (RecoveryStats, error) {
	return s.OpenDirFS(root, vfs.OS{})
}

// OpenDirFS is OpenDir over an injectable filesystem (internal/vfs) —
// the seam the fault-injection suites use to script disk failures
// against a whole durable system instead of one source.
func (s *System) OpenDirFS(root string, fsys vfs.FS) (RecoveryStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var stats RecoveryStats
	if s.pdir != nil {
		return stats, fmt.Errorf("core: persistence already open at %q", s.pdir.Root())
	}
	d, err := persist.OpenFS(root, fsys)
	if err != nil {
		return stats, err
	}
	names, err := d.Sources()
	if err != nil {
		return stats, err
	}
	psrcs := make(map[string]*persist.Source)
	for _, name := range names {
		if _, ok := s.ontologies[name]; !ok {
			stats.Skipped = append(stats.Skipped, name)
			continue
		}
		src, err := d.Source(name)
		if err != nil {
			return stats, err
		}
		rec, err := src.Recover()
		if err != nil {
			return stats, err
		}
		store, err := kb.Restore(name, rec.Facts, rec.Epoch)
		if err != nil {
			return stats, fmt.Errorf("core: recovering %q: %w", name, err)
		}
		store.SetJournal(src)
		baseline := s.kbs[name]
		s.kbs[name] = store
		psrcs[name] = src
		if baseline != nil {
			var merr error
			baseline.ForEach(func(f kb.Fact) bool {
				// Add dedups everything except NaN-valued facts (a NaN never
				// equals any existing fact, so it always inserts). Re-adding
				// the baseline on every restart would therefore journal and
				// snapshot another copy of each NaN fact each boot — skip
				// baseline facts the recovered store already holds bitwise.
				if f.Object.IsNumber() && math.IsNaN(f.Object.Num) && storeHasBitwise(store, f) {
					return true
				}
				if err := store.Add(f.Subject, f.Predicate, f.Object); err != nil {
					merr = err
					return false
				}
				return true
			})
			if merr != nil {
				return stats, fmt.Errorf("core: merging baseline facts of %q: %w", name, merr)
			}
		}
		stats.Recovered = append(stats.Recovered, RecoveredSource{
			Name: name, Facts: store.Len(), Epoch: store.Epoch(), TruncatedBytes: rec.TruncatedBytes,
		})
	}
	// Registered knowledge bases with no disk state yet: snapshot their
	// pre-journal facts so they survive the first restart, then journal
	// everything after.
	kbNames := make([]string, 0, len(s.kbs))
	for name := range s.kbs {
		kbNames = append(kbNames, name)
	}
	sort.Strings(kbNames)
	for _, name := range kbNames {
		if _, done := psrcs[name]; done {
			continue
		}
		store := s.kbs[name]
		src, err := d.Source(name)
		if err != nil {
			return stats, err
		}
		if err := src.Snapshot(store.Facts(), store.Epoch()); err != nil {
			return stats, err
		}
		store.SetJournal(src)
		psrcs[name] = src
		stats.Bootstrapped = append(stats.Bootstrapped, name)
	}
	s.pdir = d
	s.psrcs = psrcs
	// Recovered stores replaced registry pointers — structural.
	s.invalidateEnginesLocked()
	return stats, nil
}

// storeHasBitwise reports whether the store holds a fact bitwise-equal
// to f under the codec's cell semantics (rowcodec.SameCell: kind-strict,
// every NaN in one class) — the membership check Add's Value.Equal-based
// dedup cannot answer for NaN objects. Restart-merge only; it scans the
// subject's index rather than keeping a second dedup structure.
func storeHasBitwise(store *kb.Store, f kb.Fact) bool {
	found := false
	store.ForEachBySubject(f.Subject, func(g kb.Fact) bool {
		if g.Predicate == f.Predicate && rowcodec.SameCell(g.Object, f.Object) {
			found = true
			return false
		}
		return true
	})
	return found
}

// SnapshotInfo is one source's state at a manual snapshot.
type SnapshotInfo struct {
	Facts int    `json:"facts"`
	Epoch uint64 `json:"epoch"`
}

// SnapshotAll snapshots every durable source now (oniond's /snapshot
// endpoint; also useful before planned restarts so recovery replays no
// log at all). Returns per-source fact counts and epochs.
func (s *System) SnapshotAll() (map[string]SnapshotInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pdir == nil {
		return nil, fmt.Errorf("core: no persistence directory open")
	}
	out := make(map[string]SnapshotInfo, len(s.psrcs))
	names := make([]string, 0, len(s.psrcs))
	for name := range s.psrcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		store := s.kbs[name]
		if store == nil {
			continue
		}
		if err := s.psrcs[name].Snapshot(store.Facts(), store.Epoch()); err != nil {
			return out, err
		}
		out[name] = SnapshotInfo{Facts: store.Len(), Epoch: store.Epoch()}
	}
	return out, nil
}

// PersistRoot returns the open persistence directory ("" when the
// system is not durable).
func (s *System) PersistRoot() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.pdir == nil {
		return ""
	}
	return s.pdir.Root()
}

// Load reads an ontology from r in the given wrapper format and registers
// it. A non-empty name overrides the name carried by the document.
func (s *System) Load(r io.Reader, f wrapper.Format, name string) (*ontology.Ontology, error) {
	o, err := wrapper.Read(r, f)
	if err != nil {
		return nil, err
	}
	if name != "" {
		o.SetName(name)
	}
	if err := s.Register(o); err != nil {
		return nil, err
	}
	return o, nil
}

// Ontology implements ontology.Resolver over the registry.
func (s *System) Ontology(name string) (*ontology.Ontology, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.ontologies[name]
	return o, ok
}

// KB returns the knowledge base attached to an ontology, if any.
func (s *System) KB(name string) (*kb.Store, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.kbs[name]
	return st, ok
}

// Ontologies lists registered ontology names, sorted.
func (s *System) Ontologies() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.ontologies))
	for n := range s.ontologies {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Articulations lists registered articulation names, sorted.
func (s *System) Articulations() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.arts))
	for n := range s.arts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Articulation returns a registered articulation.
func (s *System) Articulation(name string) (*articulation.Articulation, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.arts[name]
	return a, ok
}

// Drop removes an ontology "from further consideration" (§2.2), along
// with its knowledge base. Articulations referring to it stay registered
// but will fail validation until regenerated. Dropping an articulation
// ontology also unregisters the articulation. On a durable system the
// source's journal is closed but its files are kept — dropping is a
// registry operation, not a deletion; a later OpenDir run skips (never
// destroys) orphaned state.
func (s *System) Drop(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ontologies[name]; !ok {
		return false
	}
	delete(s.ontologies, name)
	delete(s.kbs, name)
	delete(s.arts, name)
	if src, ok := s.psrcs[name]; ok {
		src.Close()
		delete(s.psrcs, name)
	}
	s.invalidateEnginesLocked()
	return true
}

// Suggest runs SKAT over two registered ontologies. The system's lexicon
// is used unless cfg provides one.
func (s *System) Suggest(o1, o2 string, cfg skat.Config) ([]skat.Suggestion, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, b, err := s.pair(o1, o2)
	if err != nil {
		return nil, err
	}
	if cfg.Lexicon == nil {
		cfg.Lexicon = s.lex
	}
	return skat.Propose(a, b, cfg), nil
}

// RunSession drives the SKAT expert loop over two registered ontologies.
// The session runs on clones taken under the read lock, so a (possibly
// interactive, long-running) expert never holds the registry lock and
// may call back into the System freely.
func (s *System) RunSession(o1, o2 string, cfg skat.Config, expert skat.Expert) (*rules.Set, skat.SessionStats, error) {
	s.mu.RLock()
	a, b, err := s.pair(o1, o2)
	if cfg.Lexicon == nil {
		cfg.Lexicon = s.lex
	}
	if err != nil {
		s.mu.RUnlock()
		return nil, skat.SessionStats{}, err
	}
	a, b = a.Clone(), b.Clone()
	s.mu.RUnlock()
	set, stats := skat.RunSession(a, b, cfg, expert)
	return set, stats, nil
}

// InferRules derives additional simple articulation rules from a rule set
// and the sources' class structure (§2.4: the inference engine "derive[s]
// more rules if possible"; the expert reviews before accepting).
func (s *System) InferRules(o1, o2 string, set *rules.Set) ([]articulation.DerivedRule, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, b, err := s.pair(o1, o2)
	if err != nil {
		return nil, err
	}
	return articulation.InferRules(a, b, set)
}

// Articulate generates and registers the articulation artName between two
// registered ontologies. The articulation ontology itself is registered
// as a source, so it can be articulated further (§4.2).
func (s *System) Articulate(artName, o1, o2 string, set *rules.Set, opts articulation.Options) (*articulation.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, b, err := s.pair(o1, o2)
	if err != nil {
		return nil, err
	}
	if _, dup := s.ontologies[artName]; dup {
		return nil, fmt.Errorf("core: articulation name %q collides with a registered ontology", artName)
	}
	res, err := articulation.Generate(artName, a, b, set, opts)
	if err != nil {
		return nil, err
	}
	if err := res.Art.Validate(ontology.MapResolver(s.ontologies)); err != nil {
		return nil, err
	}
	s.arts[artName] = res.Art
	s.ontologies[artName] = res.Art.Ont
	s.invalidateEnginesLocked()
	return res, nil
}

// Union computes the unified ontology over a registered articulation.
func (s *System) Union(artName string) (*algebra.UnionResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	art, a, b, err := s.artSources(artName)
	if err != nil {
		return nil, err
	}
	return algebra.UnionWith(a, b, art, algebra.Options{})
}

// Intersection returns (a clone of) the articulation ontology — the
// paper's O1 ∩rules O2 (§5.2).
func (s *System) Intersection(artName string) (*ontology.Ontology, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	art, _, _, err := s.artSources(artName)
	if err != nil {
		return nil, err
	}
	return art.Ont.Clone(), nil
}

// Difference computes O1 −rules O2 over a registered articulation; swap
// reverses the operand order.
func (s *System) Difference(artName string, swap bool, mode algebra.DiffMode) (*ontology.Ontology, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	art, a, b, err := s.artSources(artName)
	if err != nil {
		return nil, err
	}
	if swap {
		a, b = b, a
	}
	return algebra.DifferenceWith(a, b, art, algebra.Options{DiffMode: mode})
}

// QueryEngine returns the query engine over a registered articulation,
// its two sources and their knowledge bases. Engines are cached (they
// hold compiled plans and scan indexes) and invalidated whenever the
// system mutates. An engine used directly is not synchronised with
// System mutations — prefer Query/QueryWith, which execute under the
// registry read lock, when mutators may run concurrently.
func (s *System) QueryEngine(artName string) (*query.Engine, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.engineLocked(artName)
}

// engineLocked returns the cached or freshly built engine. Callers hold
// s.mu (read or write), so no mutation — and therefore no cache
// invalidation — can interleave between building and storing.
func (s *System) engineLocked(artName string) (*query.Engine, error) {
	s.engMu.Lock()
	e := s.engines[artName]
	s.engMu.Unlock()
	if e != nil {
		return e, nil
	}
	art, a, b, err := s.artSources(artName)
	if err != nil {
		return nil, err
	}
	sources := map[string]*query.Source{
		a.Name(): {Ont: a, KB: s.kbs[a.Name()]},
		b.Name(): {Ont: b, KB: s.kbs[b.Name()]},
	}
	e, err = query.NewEngine(art, sources)
	if err != nil {
		return nil, err
	}
	s.engMu.Lock()
	if cached := s.engines[artName]; cached != nil {
		e = cached
	} else {
		s.engines[artName] = e
	}
	s.engMu.Unlock()
	return e, nil
}

// Query parses and executes a query against a registered articulation.
func (s *System) Query(artName, text string) (*query.Result, error) {
	return s.QueryWith(artName, text, query.Options{})
}

// QueryWith is Query with explicit execution options (worker-pool size
// and join partitioning — with more than one worker, keyed join chains
// run as a cross-step streaming pipeline whose per-step partition
// counts the planner derives from its estimates — plus a MemoryLimit
// under which pipeline joins degrade to grace-hash spilling, and the
// sequential reference path). The
// returned Result's Stats carry the execution counters, including
// JoinPartitions, StreamedBatches, PipelinedSteps and StepPartitions
// from the partitioned scan→join pipeline and BytesReserved,
// SpilledPartitions, SpillRuns and AdaptivePartitions from the memory
// governor. Execution runs under the registry read lock, so mutators
// (Infer, Regenerate, ...) wait for in-flight queries instead of
// racing their scans.
func (s *System) QueryWith(artName, text string, opts query.Options) (*query.Result, error) {
	return s.QueryCtx(context.Background(), artName, text, opts)
}

// QueryCtx is QueryWith under a context: cancellation or deadline expiry
// stops further scan dispatch and returns ctx.Err().
func (s *System) QueryCtx(ctx context.Context, artName, text string, opts query.Options) (*query.Result, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	res, _, err := s.ExecuteVersioned(ctx, artName, q, opts)
	return res, err
}

// QueryEpochKey returns the articulation engine's current epoch key —
// the opaque per-source version vector the serving layer keys its result
// cache on. Taken under the registry read lock, so every mutation that
// completed before the call is reflected in the key.
func (s *System) QueryEpochKey(artName string) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, err := s.engineLocked(artName)
	if err != nil {
		return "", err
	}
	return e.EpochKey(), nil
}

// ExecuteVersioned executes a parsed query under the registry read lock
// and returns the epoch key the execution ran at. Mutators are excluded
// for the whole execution, so the key exactly versions the returned
// rows: a result cached under it may be served for as long as the
// articulation's epoch key still matches.
func (s *System) ExecuteVersioned(ctx context.Context, artName string, q query.Query, opts query.Options) (*query.Result, string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, err := s.engineLocked(artName)
	if err != nil {
		return nil, "", err
	}
	key := e.EpochKey()
	res, err := e.ExecuteCtx(ctx, q, opts)
	if err != nil {
		return nil, "", err
	}
	return res, key, nil
}

// Explain reformulates a query against a registered articulation without
// executing it, returning the per-triple, per-source scan plan.
func (s *System) Explain(artName, text string) (*query.Plan, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, err := s.engineLocked(artName)
	if err != nil {
		return nil, err
	}
	return e.Explain(q)
}

// ExplainAnalyze reformulates and executes a query, returning the plan
// annotated with per-step actual row counts and durations alongside the
// result. Runs under the registry read lock like ExecuteVersioned, so
// the plan and the execution see the same epoch.
func (s *System) ExplainAnalyze(ctx context.Context, artName, text string, opts query.Options) (*query.Plan, *query.Result, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, err := s.engineLocked(artName)
	if err != nil {
		return nil, nil, err
	}
	return e.ExplainAnalyze(ctx, q, opts)
}

// Infer expands a registered ontology with the consequences of its
// relationship property declarations (via the semi-naive Horn engine) and
// returns the number of edges added.
func (s *System) Infer(ontName string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.ontologies[ontName]
	if !ok {
		return 0, fmt.Errorf("core: unknown ontology %q", ontName)
	}
	eng, err := inference.New(inference.ClausesFromRelations(o)...)
	if err != nil {
		return 0, err
	}
	eng.AddGraph(o.Graph())
	eng.Run()
	applied, _ := inference.ApplyDerived(o, eng.Derived())
	// No engine invalidation: the applied edges bumped the ontology's
	// epoch, so cached engines heal exactly the mutated source's indexes
	// at their next query instead of being rebuilt wholesale.
	return applied, nil
}

// AssessChange reports how changed terms of a source affect a registered
// articulation (§5.3 maintenance).
func (s *System) AssessChange(artName, ontName string, changed []string) (articulation.ChangeImpact, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	art, ok := s.arts[artName]
	if !ok {
		return articulation.ChangeImpact{}, fmt.Errorf("core: unknown articulation %q", artName)
	}
	return art.AssessChange(ontName, changed), nil
}

// Regenerate rebuilds a registered articulation against the current state
// of its sources (after source churn).
func (s *System) Regenerate(artName string, opts articulation.Options) (*articulation.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	art, a, b, err := s.artSources(artName)
	if err != nil {
		return nil, err
	}
	res, err := art.Regenerate(a, b, opts)
	if err != nil {
		return nil, err
	}
	s.arts[artName] = res.Art
	s.ontologies[artName] = res.Art.Ont
	s.invalidateEnginesLocked()
	return res, nil
}

// Validate checks every registered ontology and articulation.
func (s *System) Validate() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	onts := make([]string, 0, len(s.ontologies))
	for n := range s.ontologies {
		onts = append(onts, n)
	}
	sort.Strings(onts)
	for _, name := range onts {
		if err := s.ontologies[name].Validate(); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(s.arts))
	for n := range s.arts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := s.arts[name].Validate(ontology.MapResolver(s.ontologies)); err != nil {
			return err
		}
	}
	return nil
}

func (s *System) pair(o1, o2 string) (*ontology.Ontology, *ontology.Ontology, error) {
	a, ok := s.ontologies[o1]
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown ontology %q", o1)
	}
	b, ok := s.ontologies[o2]
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown ontology %q", o2)
	}
	return a, b, nil
}

func (s *System) artSources(artName string) (*articulation.Articulation, *ontology.Ontology, *ontology.Ontology, error) {
	art, ok := s.arts[artName]
	if !ok {
		return nil, nil, nil, fmt.Errorf("core: unknown articulation %q", artName)
	}
	a, b, err := s.pair(art.Sources[0], art.Sources[1])
	if err != nil {
		return nil, nil, nil, err
	}
	return art, a, b, nil
}
