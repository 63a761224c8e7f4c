package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// TripleScan describes how one triple is reformulated for one source.
type TripleScan struct {
	Source string
	// Subjects / Predicates / Objects are the expanded constant sets
	// ("*" alone means unconstrained — a variable position).
	Subjects   []string
	Predicates []string
	Objects    []string
	// Skipped is true when the triple cannot denote anything in this
	// source (an expansion came up empty), so the source is pruned.
	Skipped bool
	// Est is the planner's row estimate for this scan.
	Est int
}

// TriplePlan is the reformulation of one WHERE conjunct, in execution
// (join) order.
type TriplePlan struct {
	Triple string
	Scans  []TripleScan
	// Index is the conjunct's textual position in the WHERE clause;
	// when it differs from the slice position the planner reordered it.
	Index int
	// Est is the planner's total row estimate across sources.
	Est int
	// KeyVars are the variables the step hash-joins on (empty for the
	// first step and for disconnected cross products).
	KeyVars []string
	// NewVars are the variables this step binds first.
	NewVars []string
	// StreamsInto is the join-order position of the step this step's
	// output streams into on the pipelined path (-1 for the last step
	// and on non-pipelined plans), and StreamKeyVars are the downstream
	// key variables the output is re-hashed on at production time.
	StreamsInto   int
	StreamKeyVars []string
	// Partitions is the hash-partition count this step's join runs with
	// under the engine's default options: planner-derived from the scan
	// estimates (skew-aware) unless Options{Partitions} pins a global
	// count (0 for the leading scan step and when joins run inline).
	Partitions int
	// ActualRows and ActualNs are the step's measured row output (after
	// the filters that first apply at it) and wall-clock duration, set
	// only when the enclosing Plan is Analyzed. Rows are deterministic;
	// durations are wall-clock, and on the pipelined path every step
	// runs concurrently from execution start, so step durations overlap
	// rather than sum.
	ActualRows int
	ActualNs   int64
}

// Plan is the explanation of a query's reformulation (§2.3: "a query
// phrased in terms of an articulation ontology [is turned into] an
// execution plan against the sources involved") plus the execution
// wiring of the slot-based engine: the variable→slot assignment and the
// selectivity-ordered, hash-partitioned join pipeline.
type Plan struct {
	Query string
	// Slots is the tuple layout: Slots[i] is the variable stored at
	// slot i.
	Slots []string
	// Workers is the worker-pool size the engine's default options
	// resolve to.
	Workers int
	// Partitions is the widest hash-partition count across the join
	// steps (each step's own count is in its TriplePlan.Partitions;
	// Options{Partitions} pins them all; 0 when joins run inline).
	Partitions int
	// MemoryLimit is the engine default options' execution budget in
	// bytes (0 = unlimited): joins that cannot reserve within it degrade
	// to grace-hash spilling on the pipelined path.
	MemoryLimit int64
	// Pipelined reports that the engine's default options execute this
	// plan as the cross-step streaming pipeline: rows flow between
	// stages as columnar batches, and every step's probe output streams
	// straight into the next step's partitions while later steps'
	// sources are still scanning. False means the per-step executor.
	Pipelined bool
	// Triples are the WHERE conjuncts in execution (join) order.
	Triples []TriplePlan
	// Analyzed is true when the plan came from ExplainAnalyze: the query
	// actually ran, and ActualRows/ActualNs (whole query) plus each
	// TriplePlan's actuals record what the execution measured against
	// the planner's estimates. Per-step actuals are populated on the
	// slot-executor paths (StepRows); the Sequential reference path
	// reports only the totals.
	Analyzed   bool
	ActualRows int
	ActualNs   int64
}

// String renders the plan for terminal display; Analyzed plans carry
// "actual" annotations next to every estimate.
func (p *Plan) String() string {
	var b strings.Builder
	if p.Analyzed {
		fmt.Fprintf(&b, "plan for %s  (analyzed: %d rows in %s)\n",
			p.Query, p.ActualRows, time.Duration(p.ActualNs).Round(time.Microsecond))
	} else {
		fmt.Fprintf(&b, "plan for %s\n", p.Query)
	}
	if len(p.Slots) > 0 {
		parts := make([]string, len(p.Slots))
		for i, v := range p.Slots {
			parts[i] = fmt.Sprintf("?%s=s%d", v, i)
		}
		fmt.Fprintf(&b, "  slots: %s\n", strings.Join(parts, " "))
	}
	switch {
	case p.Pipelined:
		fmt.Fprintf(&b, "  exec: columnar batches; cross-step pipeline — %d scan workers, joins hash-partitioned %d ways, vectorized hash/filter/probe over slot columns\n",
			p.Workers, p.Partitions)
	case p.Workers > 1:
		fmt.Fprintf(&b, "  exec: slot tuples; keyed joins hash-partitioned %d ways across %d workers, scan output streamed in batches, per-step barriers\n",
			p.Partitions, p.Workers)
	default:
		b.WriteString("  exec: slot tuples; keyed joins inline (single worker)\n")
	}
	if p.MemoryLimit > 0 {
		fmt.Fprintf(&b, "  memory: budget %d bytes — joins degrade to grace-hash spill at their reservation\n", p.MemoryLimit)
	}
	for i, tp := range p.Triples {
		key := "-"
		if len(tp.KeyVars) > 0 {
			key = "{?" + strings.Join(tp.KeyVars, " ?") + "}"
		}
		parts := ""
		if tp.Partitions > 0 {
			parts = fmt.Sprintf(", parts %d", tp.Partitions)
		}
		actual := ""
		if p.Analyzed && tp.ActualNs > 0 {
			actual = fmt.Sprintf(", actual %d rows in %s",
				tp.ActualRows, time.Duration(tp.ActualNs).Round(time.Microsecond))
		}
		fmt.Fprintf(&b, "  step %d: triple %s  (where #%d, est %d, join key %s%s%s)\n",
			i+1, tp.Triple, tp.Index+1, tp.Est, key, parts, actual)
		if tp.StreamsInto >= 0 {
			fmt.Fprintf(&b, "    ~> streams into step %d on {?%s}\n",
				tp.StreamsInto+1, strings.Join(tp.StreamKeyVars, " ?"))
		}
		for _, sc := range tp.Scans {
			if sc.Skipped {
				fmt.Fprintf(&b, "    %-12s pruned (no denotation)\n", sc.Source)
				continue
			}
			fmt.Fprintf(&b, "    %-12s subj %s  pred %s  obj %s  est %d\n",
				sc.Source, setOrStar(sc.Subjects), setOrStar(sc.Predicates), setOrStar(sc.Objects), sc.Est)
		}
	}
	return b.String()
}

func setOrStar(ss []string) string {
	if len(ss) == 0 {
		return "*"
	}
	return "{" + strings.Join(ss, ", ") + "}"
}

// Explain compiles the query without executing it, returning the
// per-triple, per-source scan plan in join order together with the slot
// assignment. It shares the plan cache with execution, so explaining a
// query warms its plan.
func (e *Engine) Explain(q Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	e.validateEpochs()
	ep, _ := e.cachedPlan(q)
	workers := resolveWorkers(e.opts)
	plan := &Plan{
		Query:       q.String(),
		Slots:       append([]string(nil), ep.slotNames...),
		Workers:     workers,
		MemoryLimit: e.opts.MemoryLimit,
	}
	plan.Pipelined = ep.pipelines(e.opts, workers)
	for i, stp := range ep.steps {
		tp := TriplePlan{
			Triple:      stp.triple.String(),
			Index:       stp.origIdx,
			Est:         stp.est,
			KeyVars:     slotVars(ep, stp.keySlots),
			NewVars:     slotVars(ep, stp.newSlots),
			StreamsInto: -1,
		}
		// Per-step planner-derived partition counts, as the engine's
		// default options would execute them (keyed steps only; joins
		// run inline on a single worker).
		if workers > 1 && i > 0 && len(stp.keySlots) > 0 {
			tp.Partitions = ep.stepPartCount(i, e.opts, workers)
			if plan.Partitions < tp.Partitions {
				plan.Partitions = tp.Partitions
			}
		}
		if plan.Pipelined && i+1 < len(ep.steps) {
			tp.StreamsInto = i + 1
			tp.StreamKeyVars = slotVars(ep, stp.nextKeySlots)
		}
		for _, sc := range stp.scans {
			scan := TripleScan{Source: sc.name, Est: sc.est}
			if sc.view.skip {
				scan.Skipped = true
				tp.Scans = append(tp.Scans, scan)
				continue
			}
			// Copy the precomputed lists: the cached plan is immutable
			// and shared with every execution, so the returned Plan must
			// not alias its slices.
			scan.Subjects = append([]string(nil), sc.view.subjList...)
			scan.Predicates = append([]string(nil), sc.view.predList...)
			scan.Objects = sortedSet(sc.view.objTerms)
			tp.Scans = append(tp.Scans, scan)
		}
		plan.Triples = append(plan.Triples, tp)
	}
	return plan, nil
}

// ExplainAnalyze executes the query under opts and returns its plan
// annotated with the execution's measured actuals (EXPLAIN ANALYZE):
// the whole-query row count and wall time on the Plan, and — on the
// slot-executor paths, which record Stats.StepRows/StepDurNs — each
// step's emitted rows and duration next to the planner's estimates.
// The executed Result is returned alongside so callers get the rows,
// full Stats and (when opts.Trace is set) the span tree in one call.
func (e *Engine) ExplainAnalyze(ctx context.Context, q Query, opts Options) (*Plan, *Result, error) {
	plan, err := e.Explain(q)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	res, err := e.ExecuteCtx(ctx, q, opts)
	if err != nil {
		return nil, nil, err
	}
	plan.Analyzed = true
	plan.ActualRows = len(res.Rows)
	plan.ActualNs = time.Since(t0).Nanoseconds()
	st := &res.Stats
	// Per-step actuals only when the executed path produced them and
	// the step count matches the explained plan (it always does for the
	// planned paths — both come from the same cached plan).
	if len(st.StepRows) == len(plan.Triples) && len(st.StepDurNs) == len(plan.Triples) {
		for i := range plan.Triples {
			plan.Triples[i].ActualRows = st.StepRows[i]
			plan.Triples[i].ActualNs = st.StepDurNs[i]
		}
	}
	return plan, res, nil
}

func slotVars(p *execPlan, slots []int) []string {
	if len(slots) == 0 {
		return nil
	}
	out := make([]string, len(slots))
	for i, s := range slots {
		out[i] = p.slotNames[s]
	}
	return out
}

func sortedSet(set map[string]bool) []string {
	if set == nil {
		return nil
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
