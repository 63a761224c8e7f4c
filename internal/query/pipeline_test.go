package query

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/articulation"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/rules"
)

// chainPreds are the fact predicates of the deep-chain world, in WHERE
// order after the leading InstanceOf conjunct.
var chainPreds = []string{"C1", "C2", "C3", "C4", "C5"}

// deepChainEngine builds a two-source world for a join chain of
// 1+len(chainPreds) steps: every instance carries dup values under every
// predicate, so the frontier widens geometrically through the chain —
// the shape that stresses cross-step streaming (every step's probe
// output immediately feeds the next step's partitions).
func deepChainEngine(t testing.TB, instances, dup int) (*Engine, Query) {
	t.Helper()
	sources := make(map[string]*Source, 2)
	var onts []*ontology.Ontology
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("dc%d", i)
		o := ontology.New(name)
		o.MustAddTerm("Item")
		for _, p := range chainPreds {
			o.MustAddTerm(p)
			o.MustRelate("Item", ontology.AttributeOf, p)
		}
		store := kb.New(name)
		for k := 0; k < instances; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			for pi, p := range chainPreds {
				for d := 0; d < dup; d++ {
					store.MustAdd(inst, p, kb.Number(float64(pi*1000+(k+d)%13)))
				}
			}
		}
		sources[name] = &Source{Ont: o, KB: store}
		onts = append(onts, o)
	}
	set := rules.NewSet(rules.MustParse("dc1.Item => dc2.Item"))
	res, err := articulation.Generate("dcart", onts[0], onts[1], set, articulation.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Art, sources)
	if err != nil {
		t.Fatal(err)
	}
	where := "?x InstanceOf Item"
	for i, p := range chainPreds {
		where += fmt.Sprintf(" . ?x %s ?v%d", p, i)
	}
	q := MustParse("SELECT ?x ?v0 ?v4 WHERE " + where + " . FILTER ?v1 >= 1000")
	return eng, q
}

// TestPipelinedExecutorMatchesReferences checks the cross-step pipeline
// against the sequential reference and the per-step path on the
// deep-chain world: byte-identical rows under default and decoupled
// partition counts, and the pipeline stats populated.
func TestPipelinedExecutorMatchesReferences(t *testing.T) {
	eng, q := deepChainEngine(t, 60, 2)
	want, err := eng.ExecuteWith(q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatalf("deep-chain world produced no rows")
	}
	modes := []struct {
		name string
		opts Options
	}{
		{"tuple-inline", Options{Workers: 1}},
		{"pipelined", Options{Workers: 4}},
		{"pipelined-cached", Options{Workers: 4}},
		{"pipelined-parts-2", Options{Workers: 4, Partitions: 2}},
		{"pipelined-parts-7", Options{Workers: 3, Partitions: 7}},
		{"pipelined-2", Options{Workers: 2}},
		{"batch-16k-budget", Options{Workers: 4, MemoryLimit: 1 << 14}},
		{"batch-16k-budget-parts-7", Options{Workers: 3, Partitions: 7, MemoryLimit: 1 << 14}},
	}
	for _, m := range modes {
		got, err := eng.ExecuteWith(q, m.opts)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if !want.EqualRows(got) {
			t.Errorf("%s diverged: sequential %d rows, got %d", m.name, len(want.Rows), len(got.Rows))
		}
		if got.Stats.JoinedRows != want.Stats.JoinedRows {
			t.Errorf("%s JoinedRows = %d, want %d", m.name, got.Stats.JoinedRows, want.Stats.JoinedRows)
		}
	}

	steps := len(q.Where)
	got, err := eng.ExecuteWith(q, Options{Workers: 4, Partitions: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.PipelinedSteps != steps-1 {
		t.Errorf("PipelinedSteps = %d, want %d", got.Stats.PipelinedSteps, steps-1)
	}
	if got.Stats.JoinPartitions != 7 {
		t.Errorf("JoinPartitions = %d, want 7 (decoupled from 4 workers)", got.Stats.JoinPartitions)
	}
	if len(got.Stats.StepPartitions) != steps || got.Stats.StepPartitions[0] != 0 || got.Stats.StepPartitions[1] != 7 {
		t.Errorf("StepPartitions = %v, want [0 7 7 ...]", got.Stats.StepPartitions)
	}
	if got.Stats.StreamedBatches == 0 {
		t.Errorf("no batches streamed: %+v", got.Stats)
	}

	// A shallow chain over the same world sits below the pipeline's cost
	// gate, so the plan runs it per-step: no pipelining reported, and
	// the partition option still applies to its per-step join.
	shallow := MustParse("SELECT ?x ?v0 WHERE ?x InstanceOf Item . ?x C1 ?v0")
	wantShallow, err := eng.ExecuteWith(shallow, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	perStep, err := eng.ExecuteWith(shallow, Options{Workers: 4, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !wantShallow.EqualRows(perStep) {
		t.Errorf("shallow per-step run diverged: sequential %d rows, got %d",
			len(wantShallow.Rows), len(perStep.Rows))
	}
	if perStep.Stats.PipelinedSteps != 0 {
		t.Errorf("shallow run reported pipelined steps: %+v", perStep.Stats)
	}
	if perStep.Stats.JoinPartitions != 3 {
		t.Errorf("shallow per-step JoinPartitions = %d, want 3", perStep.Stats.JoinPartitions)
	}
}

// TestPipelineEmptyStepShortCircuits covers the cancellation path: a
// chain whose most selective conjunct matches nothing must return empty
// on the pipeline (and every other path) without wedging, with the
// cancellation machinery accounted in Stats.
func TestPipelineEmptyStepShortCircuits(t *testing.T) {
	eng, _ := deepChainEngine(t, 40, 1)
	where := "?x InstanceOf Item"
	for i, p := range chainPreds {
		where += fmt.Sprintf(" . ?x %s ?v%d", p, i)
	}
	// Nothing matches C1 = -1, and the planner runs that conjunct first
	// (estimate 0), so the pipeline's first output is provably empty.
	q := MustParse("SELECT ?x WHERE " + where + " . FILTER ?v0 = -1")
	qMiss := MustParse("SELECT ?x ?m WHERE " + where + " . ?x Missing ?m")
	for _, q := range []Query{q, qMiss} {
		for _, m := range advModes {
			got, err := eng.ExecuteWith(q, m.opts)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if len(got.Rows) != 0 {
				t.Errorf("%s returned %d rows on empty-step chain", m.name, len(got.Rows))
			}
		}
		got, err := eng.ExecuteWith(q, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.ScansCancelled < 0 || got.Stats.ScansCancelled > got.Stats.SourceScans {
			t.Errorf("ScansCancelled out of range: %+v", got.Stats)
		}
	}
}

// TestPipelineRaceHammer runs the cross-step pipeline from many
// goroutines with churning worker and partition counts while the plan
// cache fills. Run with -race.
func TestPipelineRaceHammer(t *testing.T) {
	eng, q := deepChainEngine(t, 30, 2)
	q2 := MustParse("SELECT ?x ?v0 WHERE ?x InstanceOf Item . ?x C1 ?v0 . ?x C2 ?v1 . ?x C3 ?v2")
	want, err := eng.ExecuteWith(q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	want2, err := eng.ExecuteWith(q2, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const iters = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi, ref := q, want
				if (g+i)%2 == 1 {
					qi, ref = q2, want2
				}
				opts := Options{Workers: 2 + (g+i)%3, Partitions: 1 + (g+2*i)%5}
				got, err := eng.ExecuteWith(qi, opts)
				if err != nil {
					errs <- err
					return
				}
				if !ref.EqualRows(got) {
					errs <- fmt.Errorf("goroutine %d iter %d diverged under pipelined join", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
