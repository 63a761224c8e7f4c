package query

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/articulation"
	"repro/internal/graph"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/ontology"
)

// Source is one knowledge source: an ontology and (optionally) the
// knowledge base beneath it.
type Source struct {
	Ont *ontology.Ontology
	KB  *kb.Store
}

// Stats counts the work one execution performed; the query benchmarks
// (experiment E8) report these alongside wall-clock times.
type Stats struct {
	// SourceScans is the number of per-source triple scans.
	SourceScans int
	// EdgeRows / FactRows count rows produced from ontology edges and KB
	// facts respectively.
	EdgeRows int
	FactRows int
	// JoinedRows counts rows surviving all joins (before projection).
	JoinedRows int
	// Conversions counts functional-bridge value conversions applied.
	Conversions int
	// ExpandedTerms counts articulation-term → source-term expansions.
	ExpandedTerms int
	// PlanCacheHit reports whether a cached compiled plan was reused
	// (always false on the sequential path, which does not plan).
	PlanCacheHit bool
	// ReorderedTriples counts WHERE conjuncts the planner executed off
	// their textual position (selectivity-ordered joins).
	ReorderedTriples int
	// ParallelScans counts per-source scans dispatched to the worker
	// pool (0 when the execution ran inline).
	ParallelScans int
	// Workers is the scan worker-pool size the execution used (1 =
	// inline, no goroutines).
	Workers int
	// JoinPartitions is the number of hash partitions the partitioned
	// joins ran with (the maximum across steps; 0 when every join ran
	// inline).
	JoinPartitions int
	// StreamedBatches counts tuple batches streamed into the partitioned
	// joins — from scans, and on the pipelined path also from step to
	// step (0 on inline and non-streaming executions).
	StreamedBatches int
	// PipelinedSteps counts join steps that received their probe input
	// streamed from the previous step instead of from a materialised
	// frontier — the cross-step pipeline (0 on the sequential and
	// per-step executions).
	PipelinedSteps int
	// StepPartitions records each join step's hash-partition count in
	// join order (0 for the leading scan step and for inline joins; nil
	// when no join partitioned). The counts decouple from Workers via
	// Options{Partitions}.
	StepPartitions []int
	// ScansCancelled counts source scans whose dispatch was skipped
	// because a pipeline step's output was provably empty — the
	// pipelined form of the empty-join short-circuit. Timing-dependent
	// (an in-flight scan runs to completion), unlike the row counters,
	// which are deterministic.
	ScansCancelled int
	// BytesReserved is the peak accounted bytes of the execution's
	// memory budget (internal/query/mem): build tables, pending probe
	// queues, arena blocks, projection dedup sets and spill buffers.
	// Reported whether or not Options{MemoryLimit} caps it (0 on the
	// sequential reference path, which does not account).
	BytesReserved int64
	// SpilledPartitions counts join partitions that spilled tuples to
	// disk under Options{MemoryLimit} — a pending probe queue
	// overflowing to a run (build table still in memory), or the full
	// grace-hash degrade when the build table itself could not reserve.
	// Whether a given partition crosses its reservation can depend on
	// arrival interleaving, so the count is timing-influenced — but it
	// is always > 0 when the limit genuinely undercuts the build
	// footprint, and always 0 without a limit.
	SpilledPartitions int
	// SpillRuns counts temp-file runs the grace-hash joins created
	// (build + probe sides, including recursive sub-partitioning).
	SpillRuns int
	// AdaptivePartitions counts join steps whose hash-partition count
	// was derived from the planner's scan estimates (0 when
	// Options{Partitions} pins a global count or no join partitioned).
	AdaptivePartitions int
	// SpilledBytes counts bytes written to grace-hash spill runs
	// (record framing included, recursion included). Deterministic for
	// a given spilled-partition set; 0 without a memory limit.
	SpilledBytes int64
	// Batches counts the column batches the batch executor produced
	// (scan-side and stage-output batches; 0 on every other path).
	// Deterministic: batch boundaries are fixed by per-producer row
	// counts and the batch capacity, not by scheduling.
	Batches int
	// BatchRows counts the rows those batches carried before selection
	// masks dropped filtered rows — alongside Batches it gives the
	// realised batch fill (BatchRows/Batches) on the batch path.
	BatchRows int
	// SelectivityPct is the percentage of rows entering the batch
	// executor's vectorized filter passes that survived them (100 when
	// no filter applied; 0 only when every filtered row dropped).
	// Deterministic, like the row counters it derives from.
	SelectivityPct float64
	// HybridJoins counts join partitions that degraded as hybrid
	// grace-hash joins: the build prefix already reserved stayed in
	// memory and only the overflow spilled to runs. A subset of
	// SpilledPartitions, and timing-influenced the same way.
	HybridJoins int
	// ProjectionSpills counts last-stage partitions whose streaming
	// projection dedup set could not reserve and degraded to sorted
	// spill runs merged (and deduplicated) at stage end. The runs and
	// bytes count in SpillRuns/SpilledBytes.
	ProjectionSpills int
	// StepRows records each planned step's emitted row count in join
	// order, after the filters that first apply at that step — the
	// actuals EXPLAIN ANALYZE reports against the planner estimates.
	// Deterministic; nil on the Sequential reference path, which does
	// not run the planned executors' step machinery.
	StepRows []int
	// StepDurNs records each planned step's wall-clock duration in
	// nanoseconds, in join order. On the pipelined path all steps run
	// concurrently from execution start, so durations overlap rather
	// than sum. Timing-dependent by nature; nil where StepRows is nil.
	StepDurNs []int64
}

// accrue adds the order-independent work counters of s into dst. The
// parallel executor gives every scan task a private Stats and merges
// them deterministically afterwards.
func (dst *Stats) accrue(s Stats) {
	dst.EdgeRows += s.EdgeRows
	dst.FactRows += s.FactRows
	dst.Conversions += s.Conversions
	dst.ExpandedTerms += s.ExpandedTerms
	dst.StreamedBatches += s.StreamedBatches
	dst.Batches += s.Batches
	dst.BatchRows += s.BatchRows
}

// Result is a query answer: variable names and value rows, deterministic
// order, duplicates removed.
type Result struct {
	Vars  []string
	Rows  [][]kb.Value
	Stats Stats
	// Trace is the execution's recorded span tree when Options.Trace
	// enabled tracing; nil otherwise. It is settled by the time the
	// Result is returned and safe to marshal or render.
	Trace *obs.Span `json:"trace,omitempty"`
}

// EqualRows reports whether two results carry the same variables and
// cell-identical rows in the same order — the determinism contract
// between the sequential and the planned/parallel execution paths.
// Cells compare kind-strictly (sameCell), so an executor that returned
// Term("3000") where another returned Number(3000) is detected as a
// divergence even though both cells format identically.
func (r *Result) EqualRows(o *Result) bool {
	if o == nil || len(r.Vars) != len(o.Vars) || len(r.Rows) != len(o.Rows) {
		return false
	}
	for i := range r.Vars {
		if r.Vars[i] != o.Vars[i] {
			return false
		}
	}
	for i := range r.Rows {
		if len(r.Rows[i]) != len(o.Rows[i]) {
			return false
		}
		for j := range r.Rows[i] {
			if !sameCell(r.Rows[i][j], o.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// Engine executes articulation-level queries against the sources by
// reformulating each triple through the semantic bridges.
//
// An Engine is safe for concurrent Execute/ExecuteWith/Explain calls.
// It caches compiled plans and per-source edge indexes, validated against
// the sources' mutation epochs at every query: mutating a source ontology
// or knowledge base underneath a live engine (between queries — never
// concurrently with one) is self-healing, and only the mutated sources'
// scan indexes are rebuilt. InvalidateCache remains as a forced flush.
type Engine struct {
	art     *articulation.Articulation
	sources map[string]*Source
	names   []string // sorted source names, articulation first
	opts    Options  // defaults for Execute
	id      uint64   // process-unique engine identity (EpochKey component)

	mu       sync.RWMutex
	plans    map[string]*execPlan
	edgeIdx  map[string]map[string][]graph.Edge // source → edge label → edges
	qualIdx  map[string]map[string]string       // source → term → qualified name
	factQIdx map[string][]factQual              // source → fact ordinal → qualified subject/object
	epochs   []uint64                           // per-source epochs the caches were built under, in names order
}

// factQual is one fact's pre-qualified emission values: the subject as a
// qualified term, and — when the fact's object is a term — the object
// too. Indexed scans read these by fact ordinal instead of hashing the
// subject through the qualification table once per row.
type factQual struct {
	subj kb.Value
	obj  kb.Value // KindTerm iff the fact's object is a term
}

// NewEngine builds an engine over the articulation and its sources. The
// articulation ontology itself participates as a source (without a KB), so
// queries can ask about articulation-level structure directly.
func NewEngine(art *articulation.Articulation, sources map[string]*Source) (*Engine, error) {
	return NewEngineWith(art, sources, Options{})
}

// NewEngineWith is NewEngine with default execution options for Execute.
func NewEngineWith(art *articulation.Articulation, sources map[string]*Source, opts Options) (*Engine, error) {
	if art == nil {
		return nil, fmt.Errorf("query: nil articulation")
	}
	e := &Engine{
		art:      art,
		sources:  make(map[string]*Source, len(sources)+1),
		opts:     opts,
		plans:    make(map[string]*execPlan),
		edgeIdx:  make(map[string]map[string][]graph.Edge),
		qualIdx:  make(map[string]map[string]string),
		factQIdx: make(map[string][]factQual),
	}
	e.sources[art.Ont.Name()] = &Source{Ont: art.Ont}
	for name, s := range sources {
		if s == nil || s.Ont == nil {
			return nil, fmt.Errorf("query: source %q has no ontology", name)
		}
		if name != s.Ont.Name() {
			return nil, fmt.Errorf("query: source registered under %q but ontology is %q", name, s.Ont.Name())
		}
		e.sources[name] = s
	}
	for name := range e.sources {
		e.names = append(e.names, name)
	}
	sort.Strings(e.names)
	e.id = engineSeq.Add(1)
	e.epochs = make([]uint64, len(e.names))
	e.sourceEpochs(e.epochs)
	return e, nil
}

// engineSeq hands every engine a process-unique id. EpochKey folds it
// in, so keys from different engines — including a rebuilt engine over a
// swapped-in store whose epoch count happens to coincide with its
// predecessor's — can never collide in a serving-layer cache.
var engineSeq atomic.Uint64

// sourceEpoch folds one source's ontology and KB epochs into a single
// monotonic counter: both inputs only ever grow, so any mutation moves
// the sum and equal sums guarantee an unmutated source.
func sourceEpoch(src *Source) uint64 {
	ep := src.Ont.Epoch()
	if src.KB != nil {
		ep += src.KB.Epoch()
	}
	return ep
}

// sourceEpochs fills dst (len == len(e.names)) with every source's
// current epoch in sorted source-name order.
func (e *Engine) sourceEpochs(dst []uint64) {
	for i, name := range e.names {
		dst[i] = sourceEpoch(e.sources[name])
	}
}

// EpochVector returns every source's current mutation epoch in sorted
// source-name order. Two equal vectors from the same engine guarantee
// that no source was mutated in between, so any result computed at the
// first read is still exact at the second — the property the serving
// layer's result cache keys on.
func (e *Engine) EpochVector() []uint64 {
	out := make([]uint64, len(e.names))
	e.sourceEpochs(out)
	return out
}

// EpochKey renders the engine's identity plus the current epoch vector
// as a compact opaque string — the cache-key component used by the
// serving layer. The identity prefix makes keys engine-unique: after a
// structural change rebuilds an engine (core.System drops engines when
// source wiring changes), the new engine's keys cannot collide with
// entries cached under the old one, even if the replacement sources'
// epoch counts coincide.
func (e *Engine) EpochKey() string {
	buf := make([]byte, 0, 4+2*len(e.names))
	buf = binary.AppendUvarint(buf, e.id)
	for _, name := range e.names {
		buf = binary.AppendUvarint(buf, sourceEpoch(e.sources[name]))
	}
	return string(buf)
}

// validateEpochs compares every source's current epoch against the
// snapshot the caches were built under and heals stale state: a changed
// source drops exactly its own edge/qual indexes, and any change flushes
// the plan cache wholesale (compilation consults every source — term
// expansion probes KB subjects, estimates read index cardinalities, and
// a mutation can even un-skip a previously impossible scan — so no plan
// can be proven unaffected). Runs at query/explain entry, so direct
// NewEngine users need no InvalidateCache call after mutating a source.
func (e *Engine) validateEpochs() {
	cur := make([]uint64, len(e.names))
	e.sourceEpochs(cur)
	e.mu.RLock()
	same := slices.Equal(e.epochs, cur)
	e.mu.RUnlock()
	if same {
		return
	}
	e.mu.Lock()
	if !slices.Equal(e.epochs, cur) {
		for i, name := range e.names {
			if e.epochs[i] != cur[i] {
				delete(e.edgeIdx, name)
				delete(e.qualIdx, name)
				delete(e.factQIdx, name)
			}
		}
		e.plans = make(map[string]*execPlan)
		copy(e.epochs, cur)
	}
	e.mu.Unlock()
}

type binding map[string]kb.Value

// Execute runs the query with the engine's default options (the planned,
// parallel path unless the engine was built with Options{Sequential: true}).
func (e *Engine) Execute(q Query) (*Result, error) {
	return e.ExecuteWith(q, e.opts)
}

// ExecuteWith runs the query with explicit execution options. Results are
// byte-identical across option combinations; only Stats and wall-clock
// time differ.
func (e *Engine) ExecuteWith(q Query, opts Options) (*Result, error) {
	return e.ExecuteCtx(context.Background(), q, opts)
}

// ExecuteCtx is ExecuteWith under a context: cancellation or deadline
// expiry stops further scan dispatch (scans already running finish — a
// single scan is never interrupted mid-walk) and the call returns
// ctx.Err() instead of a partial result. The serving layer threads
// per-request deadlines through here.
func (e *Engine) ExecuteCtx(ctx context.Context, q Query, opts Options) (*Result, error) {
	// Tracing: re-root the option's parent span on this execution so
	// every child recorded below hangs off one "query.execute" span.
	// opts is a value copy, so overwriting Trace is local to this call.
	var root *obs.Span
	if opts.Trace != nil {
		root = opts.Trace.Child("query.execute")
		root.SetAttr("query", q.String())
		opts.Trace = root
	}
	var vs *obs.Span
	if root != nil {
		vs = root.Child("validate")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.validateEpochs()
	vs.End()
	var res *Result
	var err error
	if opts.Sequential {
		res, err = e.executeSequential(ctx, q)
	} else {
		res, err = e.executePlanned(ctx, q, opts)
	}
	if err != nil {
		return nil, err
	}
	if root != nil {
		root.SetInt("rows", int64(len(res.Rows)))
		root.End()
		res.Trace = root
	}
	return res, nil
}

// executeSequential is the reference execution path: textual join order,
// unindexed scans, no plan cache, no parallelism. The determinism tests
// and the E11 benchmark compare the planned path against it.
func (e *Engine) executeSequential(ctx context.Context, q Query) (*Result, error) {
	res := &Result{Vars: q.Select}
	res.Stats.Workers = 1
	rows := []binding{{}}
	for _, triple := range q.Where {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next, err := e.evalTriple(triple, &res.Stats)
		if err != nil {
			return nil, err
		}
		rows = joinBindings(rows, next)
		if len(rows) == 0 {
			break
		}
	}
	for _, f := range q.Filters {
		kept := rows[:0]
		for _, b := range rows {
			if v, bound := b[f.Var]; bound && f.Accepts(v) {
				kept = append(kept, b)
			}
		}
		rows = kept
	}
	res.Stats.JoinedRows = len(rows)
	e.project(res, rows, q)
	return res, nil
}

// project dedups the surviving bindings onto the SELECT variables and
// sorts the rows into the deterministic output order shared by every
// execution path.
func (e *Engine) project(res *Result, rows []binding, q Query) {
	keys := make(map[string]bool, len(rows))
	var keep []keyedRow
	var buf []byte
	for _, b := range rows {
		out := make([]kb.Value, len(q.Select))
		ok := true
		for i, v := range q.Select {
			val, bound := b[v]
			if !bound {
				ok = false
				break
			}
			out[i] = val
		}
		if !ok {
			continue
		}
		buf = appendRowKey(buf[:0], out)
		if key := string(buf); !keys[key] {
			keys[key] = true
			keep = append(keep, keyedRow{key, out})
		}
	}
	res.Rows = sortKeyedRows(keep)
}

// keyedRow pairs an output row with its encoded sort/dedup key
// (appendRowKey), so the final sort compares precomputed keys instead of
// re-encoding both rows on every comparison.
type keyedRow struct {
	key string
	row []kb.Value
}

// sortKeyedRows orders deduplicated rows by their row key — the
// deterministic output order shared by every execution path: cell-wise,
// kind-major, lexicographic for terms and strings, numeric for numbers.
// Keys are unique after dedup, so the order is total (which also makes
// the unstable slices sort deterministic — no reflection-based swaps).
func sortKeyedRows(keep []keyedRow) [][]kb.Value {
	slices.SortFunc(keep, func(a, b keyedRow) int { return strings.Compare(a.key, b.key) })
	rows := make([][]kb.Value, len(keep))
	for i := range keep {
		rows[i] = keep[i].row
	}
	return rows
}

// evalTriple evaluates one triple against every source, reformulating
// constants through the bridges.
func (e *Engine) evalTriple(t Triple, stats *Stats) ([]binding, error) {
	var out []binding
	for _, name := range e.names {
		src := e.sources[name]
		stats.SourceScans++
		rows, err := e.scanSource(name, src, t, stats)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// scanView is the reformulation of one triple for one source: the
// constant expansions the scan matches against. A skipped view means the
// triple cannot denote anything in the source.
type scanView struct {
	subj     map[string]bool // nil = unconstrained (variable subject)
	preds    map[string]bool
	objTerms map[string]bool // set when the object is a constant term
	objTerm  bool
	skip     bool
	// predList / subjList are the sorted sets, precomputed by the
	// planner so indexed scans need not re-sort per execution.
	predList []string
	subjList []string
}

// compileView expands the triple's constants into the source's term
// space — the per-source reformulation step, shared by the sequential
// scan, the planner and Explain.
func (e *Engine) compileView(name string, t Triple, stats *Stats) scanView {
	subj, okS := e.expandTerm(name, t.S, stats)
	if !okS {
		return scanView{skip: true}
	}
	preds, okP := e.expandPred(name, t.P, stats)
	if !okP {
		return scanView{skip: true}
	}
	v := scanView{subj: subj, preds: preds}
	// Object constants: terms expand like subjects; literals pass through
	// (with inverse conversion against each predicate at match time).
	if !t.O.IsVar() && t.O.Value.IsTerm() {
		set, ok := e.expandTerm(name, t.O, stats)
		if !ok {
			return scanView{skip: true}
		}
		v.objTerms = set
		v.objTerm = true
	}
	return v
}

// scanSource evaluates the triple in one source for the sequential
// reference path: expansion and an unindexed full scan in one step,
// materialising binding-map rows. The planned executors consume
// scanMatch directly with tuple or column emitters instead.
func (e *Engine) scanSource(name string, src *Source, t Triple, stats *Stats) ([]binding, error) {
	v := e.compileView(name, t, stats)
	// bindVar records a variable binding, enforcing equality when the
	// triple repeats a variable (e.g. "?x Likes ?x").
	bindVar := func(b binding, t Term, val kb.Value) bool {
		if !t.IsVar() {
			return true
		}
		if old, ok := b[t.Var]; ok {
			return old.Equal(val)
		}
		b[t.Var] = val
		return true
	}
	var rows []binding
	e.scanMatch(name, src, t, v, stats, false, func(s, p, o kb.Value) bool {
		b := binding{}
		if !bindVar(b, t.S, s) || !bindVar(b, t.P, p) || !bindVar(b, t.O, o) {
			return false
		}
		rows = append(rows, b)
		return true
	})
	return rows, nil
}

// scanMatch is the matching core shared by every execution path: it walks
// one source's ontology edges and KB facts against a precompiled view and
// calls emit(subject, predicate, object) for each candidate row. emit
// reports whether the row was accepted (a repeated triple variable may
// reject it); row and conversion counters only count accepted rows.
//
// With indexed=true the scan walks the per-source edge-label index and
// the KB's predicate/subject indexes instead of every edge and fact; both
// modes produce the same row set (order may differ; the final projection
// sort normalises it).
func (e *Engine) scanMatch(name string, src *Source, t Triple, v scanView, stats *Stats, indexed bool, emit func(s, p, o kb.Value) bool) {
	if v.skip {
		return
	}
	isArt := name == e.art.Ont.Name()

	// Indexed scans qualify emitted terms through the per-source table
	// (one string per distinct term, ever) instead of concatenating a
	// fresh "source.term" string per row. The sequential reference keeps
	// the seed's per-row concatenation.
	var qt map[string]string
	if indexed {
		qt = e.qualTable(name)
	}
	qual := func(term string) kb.Value {
		if q, ok := qt[term]; ok {
			return kb.Value{Kind: kb.KindTerm, Str: q}
		}
		return kb.Term(qualify(name, term))
	}

	// Scan ontology edges.
	g := src.Ont.Graph()
	litObj := !t.O.IsVar() && !t.O.Value.IsTerm()
	matchEdge := func(edge graph.Edge) {
		if v.preds != nil && !v.preds[edge.Label] {
			return
		}
		sLabel, oLabel := g.Label(edge.From), g.Label(edge.To)
		if v.subj != nil && !v.subj[sLabel] {
			return
		}
		if v.objTerm && !e.objectMatches(src, edge.Label, oLabel, v.objTerms) {
			return
		}
		if litObj {
			return // literal object never matches an ontology edge
		}
		if emit(qual(sLabel), kb.Term(edge.Label), qual(oLabel)) {
			stats.EdgeRows++
		}
	}
	if indexed && v.preds != nil {
		idx := e.edgeIndex(name)
		for _, p := range v.predList {
			for _, edge := range idx[p] {
				matchEdge(edge)
			}
		}
	} else {
		for _, edge := range g.Edges() {
			matchEdge(edge)
		}
	}

	// Scan KB facts. matchFactQ takes the fact's pre-qualified subject
	// and (term-)object values when the caller has them — the indexed
	// predicate path reads both from the fact-ordinal cache, skipping
	// the per-fact qualification-table probe entirely. That path also
	// hoists the per-predicate work out of the fact loop: the predicate
	// membership probe (every fact under byPred[p] carries p) and the
	// functional-bridge resolution (nf, the conversion candidates for
	// this predicate, resolved once instead of re-walking the bridge
	// index per fact).
	if src.KB != nil && !isArt {
		matchFactQ := func(f *kb.Fact, subjQ, objQ kb.Value, haveQ bool, nf []string, hoisted bool) bool {
			if !hoisted && v.preds != nil && !v.preds[f.Predicate] {
				return true
			}
			if v.subj != nil && !v.subj[f.Subject] {
				return true
			}
			obj := f.Object
			conv := false
			if obj.IsNumber() {
				if !hoisted {
					nf = e.normFuncNames(name, f.Predicate)
				}
				for _, fname := range nf {
					out, err := e.art.Funcs.Apply(fname, obj.Num)
					if err != nil {
						continue
					}
					obj = kb.Number(out)
					conv = true
					break
				}
			}
			if !t.O.IsVar() {
				want := t.O.Value
				switch {
				case want.IsTerm():
					if obj.Kind != kb.KindTerm {
						return true
					}
					if v.objTerms != nil && !e.objectMatches(src, f.Predicate, obj.Str, v.objTerms) {
						return true
					}
				default:
					if !obj.Equal(want) {
						return true
					}
				}
			}
			objVal := obj
			if obj.IsTerm() {
				if haveQ {
					objVal = objQ
				} else {
					objVal = qual(obj.Str)
				}
			}
			subjVal := subjQ
			if !haveQ {
				subjVal = qual(f.Subject)
			}
			if emit(subjVal, kb.Term(f.Predicate), objVal) {
				stats.FactRows++
				if conv {
					stats.Conversions++
				}
			}
			return true
		}
		matchFact := func(f kb.Fact) bool {
			return matchFactQ(&f, kb.Value{}, kb.Value{}, false, nil, false)
		}
		switch {
		case indexed && v.preds != nil:
			// A plain loop over the store's read-only (ordinals, facts)
			// view: no per-fact callback between the index and the match.
			fq := e.factQuals(name)
			for _, p := range v.predList {
				nf := e.normFuncNames(name, p)
				ords, facts := src.KB.PredicateView(p)
				for _, i := range ords {
					if i < len(fq) {
						matchFactQ(&facts[i], fq[i].subj, fq[i].obj, true, nf, true)
					} else {
						matchFactQ(&facts[i], kb.Value{}, kb.Value{}, false, nf, true)
					}
				}
			}
		case indexed && v.subj != nil:
			for _, s := range v.subjList {
				src.KB.ForEachBySubject(s, matchFact)
			}
		default:
			// Both the indexed fallback and the sequential reference
			// stream facts in insertion order: Facts() would copy and
			// re-sort the whole store per (triple, source) scan, and the
			// final projection sort already normalises row order.
			src.KB.ForEach(matchFact)
		}
	}
}

// objectMatches checks an edge object label against the expanded object
// terms, applying the source-side InstanceOf closure: an instance of a
// subclass is an instance of the class.
func (e *Engine) objectMatches(src *Source, pred, objLabel string, objTerms map[string]bool) bool {
	if objTerms[objLabel] {
		return true
	}
	if pred != ontology.InstanceOf {
		return false
	}
	for want := range objTerms {
		if src.Ont.IsA(objLabel, want) {
			return true
		}
	}
	return false
}

// expandTerm maps a triple term constant into the given source's term
// space. Variables expand to nil (wildcard, ok). A constant that cannot
// denote anything in this source yields ok=false, skipping the source.
func (e *Engine) expandTerm(srcName string, t Term, stats *Stats) (map[string]bool, bool) {
	if t.IsVar() {
		return nil, true
	}
	if !t.Value.IsTerm() {
		return nil, true // literals are handled at match time
	}
	name := t.Value.Str
	artName := e.art.Ont.Name()

	if ref, err := ontology.ParseRef(name); err == nil && ref.Qualified() {
		if _, known := e.sources[ref.Ont]; known {
			if ref.Ont == srcName {
				return map[string]bool{ref.Term: true}, true
			}
			if ref.Ont == artName && srcName != artName {
				set := e.anchorsFor(ref.Term, srcName, stats)
				return set, len(set) > 0
			}
			return nil, false
		}
		// Qualified-looking but unknown prefix: treat as a plain name
		// (labels may legitimately contain dots).
	}

	set := make(map[string]bool)
	if srcName == artName {
		if e.art.Ont.HasTerm(name) {
			set[name] = true
		}
		return set, len(set) > 0
	}
	if e.art.Ont.HasTerm(name) {
		for a := range e.anchorsFor(name, srcName, stats) {
			set[a] = true
		}
	}
	src := e.sources[srcName]
	if src.Ont.HasTerm(name) {
		set[name] = true
	}
	if src.KB != nil {
		// Instance names live in the KB, not the ontology graph.
		if fs := src.KB.Match(name, "", nil); len(fs) > 0 {
			set[name] = true
		}
	}
	return set, len(set) > 0
}

// anchorsFor returns the source terms the articulation term (and its
// articulation-level subclasses) bridge to in the given source.
func (e *Engine) anchorsFor(artTerm, srcName string, stats *Stats) map[string]bool {
	set := make(map[string]bool)
	terms := []string{artTerm}
	for _, sub := range e.art.Ont.Subclasses(artTerm) {
		terms = append(terms, sub)
	}
	for _, a := range terms {
		for _, ref := range e.art.SourceAnchors(a) {
			if ref.Ont == srcName {
				set[ref.Term] = true
				stats.ExpandedTerms++
			}
		}
	}
	return set
}

// expandPred maps the predicate constant into the source's predicate
// space: the predicate itself plus any source terms anchored to it when
// the predicate names an articulation term (attribute terms like Price
// double as predicates in KB facts).
func (e *Engine) expandPred(srcName string, t Term, stats *Stats) (map[string]bool, bool) {
	if t.IsVar() {
		return nil, true
	}
	if !t.Value.IsTerm() {
		return nil, false // a literal predicate matches nothing
	}
	name := t.Value.Str
	artName := e.art.Ont.Name()
	set := map[string]bool{name: true}
	if ref, err := ontology.ParseRef(name); err == nil && ref.Qualified() {
		if _, known := e.sources[ref.Ont]; known {
			if ref.Ont != srcName {
				return nil, false
			}
			return map[string]bool{ref.Term: true}, true
		}
	}
	if srcName != artName && e.art.Ont.HasTerm(name) {
		for a := range e.anchorsFor(name, srcName, stats) {
			set[a] = true
		}
	}
	return set, true
}

// normFuncNames resolves the conversion candidates for one source
// predicate: the registered function names of its functional bridges
// into the articulation, in bridge order. The resolution is static per
// (source, predicate) — only Apply depends on the value — so indexed
// scans hoist it out of their per-fact loop.
func (e *Engine) normFuncNames(srcName, pred string) []string {
	if e.art.Funcs == nil {
		return nil
	}
	from := ontology.MakeRef(srcName, pred)
	var names []string
	for _, b := range e.art.BridgesFrom(from) {
		if !b.Functional() || b.To.Ont != e.art.Ont.Name() {
			continue
		}
		if !e.art.Funcs.Has(b.FuncName()) {
			continue
		}
		names = append(names, b.FuncName())
	}
	return names
}

// normalize converts a numeric KB value into the articulation's metric
// space when a functional bridge (src.pred → art.X) with a registered
// conversion exists — the paper's "query processor will utilize these
// normalization functions" (§4.1). The first candidate whose conversion
// applies cleanly wins.
func (e *Engine) normalize(srcName, pred string, v kb.Value) (kb.Value, bool) {
	for _, fname := range e.normFuncNames(srcName, pred) {
		out, err := e.art.Funcs.Apply(fname, v.Num)
		if err != nil {
			continue
		}
		return kb.Number(out), true
	}
	return v, false
}

func qualify(ont, term string) string {
	return ontology.MakeRef(ont, term).String()
}

// joinBindings hash-joins two binding sets on their shared variables.
func joinBindings(left, right []binding) []binding {
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	shared := sharedVars(left, right)

	if len(shared) == 0 {
		out := make([]binding, 0, len(left)*len(right))
		for _, l := range left {
			for _, r := range right {
				out = append(out, mergeBindings(l, r))
			}
		}
		return out
	}
	index := make(map[string][]binding, len(right))
	for _, r := range right {
		index[joinKey(r, shared)] = append(index[joinKey(r, shared)], r)
	}
	var out []binding
	for _, l := range left {
		for _, r := range index[joinKey(l, shared)] {
			out = append(out, mergeBindings(l, r))
		}
	}
	return out
}

// sharedVars collects variables bound on both sides (checked across all
// rows, since the left side accumulates different triples' variables).
func sharedVars(left, right []binding) []string {
	inLeft := make(map[string]bool)
	for _, l := range left {
		for v := range l {
			inLeft[v] = true
		}
	}
	sharedSet := make(map[string]bool)
	for _, r := range right {
		for v := range r {
			if inLeft[v] {
				sharedSet[v] = true
			}
		}
	}
	shared := make([]string, 0, len(sharedSet))
	for v := range sharedSet {
		shared = append(shared, v)
	}
	sort.Strings(shared)
	return shared
}

// joinKey encodes a row's join key on the shared variables with the same
// collision-free encoding the tuple executor hashes on (appendValueKey):
// kind-strict and framing-safe, so a term literally named "\x01unbound"
// or payloads containing '\x00' cannot falsely join (the seed joined
// Format() strings with raw separators and an in-band unbound sentinel).
// The oracle and the planned executors therefore agree on join equality
// exactly.
func joinKey(b binding, vars []string) string {
	var buf []byte
	for _, v := range vars {
		if val, ok := b[v]; ok {
			buf = appendValueKey(buf, val)
		} else {
			// Out-of-band unbound marker. 0x03 starts no value encoding
			// (kind tags are 0..2) and cannot be manufactured inside one
			// either: a 0x00 in a key is always an escape start (0x00
			// 0xff) or a terminator followed by a field start, so no
			// value bytes can imitate a terminator+marker pair. (0xff
			// would be ambiguous: terminator+0xff reads as the escape.)
			buf = append(buf, 0x03)
		}
	}
	return string(buf)
}

func mergeBindings(l, r binding) binding {
	out := make(binding, len(l)+len(r))
	for k, v := range l {
		out[k] = v
	}
	for k, v := range r {
		out[k] = v
	}
	return out
}
