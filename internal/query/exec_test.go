package query

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/articulation"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/rules"
)

// joinHeavyEngine builds a two-source world where every instance matches
// every conjunct of the returned query, so the join frontier stays at
// full width through every step — the shape that stresses the tuple join
// machinery rather than scan selectivity.
func joinHeavyEngine(t testing.TB, instances int) (*Engine, Query) {
	t.Helper()
	sources := make(map[string]*Source, 2)
	var onts []*ontology.Ontology
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("jh%d", i)
		o := ontology.New(name)
		o.MustAddTerm("Item")
		for _, p := range []string{"Price", "Qty", "Region"} {
			o.MustAddTerm(p)
			o.MustRelate("Item", ontology.AttributeOf, p)
		}
		store := kb.New(name)
		for k := 0; k < instances; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			store.MustAdd(inst, "Price", kb.Number(float64(50+k%211)))
			store.MustAdd(inst, "Qty", kb.Number(float64(1+k%37)))
			store.MustAdd(inst, "Region", kb.Term(fmt.Sprintf("R%d", k%5)))
		}
		sources[name] = &Source{Ont: o, KB: store}
		onts = append(onts, o)
	}
	set := rules.NewSet(rules.MustParse("jh1.Item => jh2.Item"))
	res, err := articulation.Generate("jhart", onts[0], onts[1], set, articulation.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Art, sources)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParse(`SELECT ?x ?p ?r WHERE ?x InstanceOf Item . ?x Price ?p . ?x Qty ?q . ?x Region ?r . FILTER ?p > 100`)
	return eng, q
}

// TestTupleExecutorMatchesReferences checks the planned paths — per-step
// inline joins and the batch pipeline (default, pinned and budgeted
// partitioning) — against the sequential reference on the join-heavy
// world.
func TestTupleExecutorMatchesReferences(t *testing.T) {
	eng, q := joinHeavyEngine(t, 300)
	want, err := eng.ExecuteWith(q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatalf("join-heavy world produced no rows")
	}
	modes := []struct {
		name string
		opts Options
	}{
		{"tuple-inline", Options{Workers: 1}},
		{"pipelined", Options{Workers: 4}},
		{"pipelined-cached", Options{Workers: 4}},
		{"pipelined-parts-3", Options{Workers: 4, Partitions: 3}},
		{"pipelined-2-parts-7", Options{Workers: 2, Partitions: 7}},
		{"batch-16k-budget", Options{Workers: 4, MemoryLimit: 1 << 14}},
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
	// The pipelined run must actually have partitioned and streamed,
	// with the partition counts planner-derived (adaptive) rather than
	// pinned by an Options{Partitions} override.
	got, err := eng.ExecuteWith(q, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.JoinPartitions < 1 {
		t.Errorf("JoinPartitions = %d, want >= 1", got.Stats.JoinPartitions)
	}
	if got.Stats.AdaptivePartitions == 0 {
		t.Errorf("default partitioning not planner-derived: %+v", got.Stats)
	}
	if got.Stats.StreamedBatches == 0 {
		t.Errorf("no batches streamed: %+v", got.Stats)
	}
	if got.Stats.PipelinedSteps == 0 {
		t.Errorf("pooled chain did not pipeline: %+v", got.Stats)
	}
	// The pipelined run executes on the columnar batch plane.
	if got.Stats.Batches == 0 || got.Stats.BatchRows == 0 {
		t.Errorf("default pipeline did not batch: %+v", got.Stats)
	}
	// An explicit global Partitions override still pins every step.
	pinned, err := eng.ExecuteWith(q, Options{Workers: 4, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Stats.JoinPartitions != 4 || pinned.Stats.AdaptivePartitions != 0 {
		t.Errorf("Partitions override not honoured: %+v", pinned.Stats)
	}
	// And the inline run must not report phantom partitions.
	inline, err := eng.ExecuteWith(q, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if inline.Stats.JoinPartitions != 0 || inline.Stats.StreamedBatches != 0 {
		t.Errorf("inline run reported partition stats: %+v", inline.Stats)
	}
	if inline.Stats.PipelinedSteps != 0 || inline.Stats.Batches != 0 {
		t.Errorf("inline run claims the pipeline: %+v", inline.Stats)
	}
}

// TestPlanChosenPerStepMatchesSequential covers the per-step shapes a
// pooled execution reaches through the plan alone, with no option
// forcing them: a shallow keyed chain whose summed scan estimate sits
// below shallowPipelineMinEst (each keyed join hash-partitioned across
// the pool and fed by streamed scan batches — joinStreamed), and a
// cross product followed by a keyed join (not chainKeyed, so never
// pipelined). Rows must be byte-identical to the sequential reference
// under every pool size and partition pin.
func TestPlanChosenPerStepMatchesSequential(t *testing.T) {
	eng, _ := joinHeavyEngine(t, 300)
	small, _ := joinHeavyEngine(t, 60)
	cases := []struct {
		name  string
		eng   *Engine
		q     Query
		cross bool // the plan has a cross-product step
	}{
		{"shallow-streamed", eng, MustParse(`SELECT ?x ?p WHERE ?x InstanceOf Item . ?x Price ?p . FILTER ?p > 100`), false},
		{"cross-then-keyed", small, MustParse(`SELECT ?x ?y ?p WHERE ?x InstanceOf Item . ?y Qty 7 . ?x Price ?p`), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plan, _ := c.eng.cachedPlan(c.q)
			if c.cross == plan.chainKeyed {
				t.Fatalf("chainKeyed = %v, want %v", plan.chainKeyed, !c.cross)
			}
			if !c.cross && plan.totalEst >= shallowPipelineMinEst {
				t.Fatalf("shallow chain estimate %d is not below the pipeline gate %d", plan.totalEst, shallowPipelineMinEst)
			}
			want, err := c.eng.ExecuteWith(c.q, Options{Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatal("world produced no rows")
			}
			for _, opts := range []Options{{Workers: 4}, {Workers: 2}, {Workers: 8}, {Workers: 4, Partitions: 3}} {
				got, err := c.eng.ExecuteWith(c.q, opts)
				if err != nil {
					t.Fatalf("%+v: %v", opts, err)
				}
				if !want.EqualRows(got) {
					t.Errorf("%+v diverged: sequential %d rows, got %d", opts, len(want.Rows), len(got.Rows))
				}
				if got.Stats.JoinedRows != want.Stats.JoinedRows {
					t.Errorf("%+v JoinedRows = %d, want %d", opts, got.Stats.JoinedRows, want.Stats.JoinedRows)
				}
				// The plan, not a knob, chose the per-step path, and its
				// keyed join ran partitioned with streamed scan batches.
				if got.Stats.PipelinedSteps != 0 || got.Stats.Batches != 0 {
					t.Errorf("%+v pipelined: %+v", opts, got.Stats)
				}
				if got.Stats.JoinPartitions == 0 || got.Stats.StreamedBatches == 0 {
					t.Errorf("%+v keyed join did not partition and stream: %+v", opts, got.Stats)
				}
				if opts.Partitions > 0 && got.Stats.JoinPartitions != opts.Partitions {
					t.Errorf("%+v JoinPartitions = %d, want %d", opts, got.Stats.JoinPartitions, opts.Partitions)
				}
			}
		})
	}
}

// TestTupleCrossProduct covers the disconnected-conjunct path (no shared
// slots between steps) on all executors.
func TestTupleCrossProduct(t *testing.T) {
	eng, _ := joinHeavyEngine(t, 10)
	q := MustParse(`SELECT ?x ?y WHERE ?x InstanceOf Item . ?y Price 51`)
	want, err := eng.ExecuteWith(q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatalf("cross product empty")
	}
	for _, opts := range []Options{{Workers: 1}, {Workers: 4}, {Workers: 2, Partitions: 3}} {
		got, err := eng.ExecuteWith(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualRows(got) {
			t.Errorf("opts %+v diverged on cross product", opts)
		}
	}
}

// TestPartitionedJoinRaceHammer runs the streamed partitioned join from
// many goroutines with varying pool sizes while the plan cache churns.
// Run with -race.
func TestPartitionedJoinRaceHammer(t *testing.T) {
	eng, q := joinHeavyEngine(t, 120)
	q2 := MustParse(`SELECT ?x ?q WHERE ?x InstanceOf Item . ?x Qty ?q . ?x Region R2`)
	want, err := eng.ExecuteWith(q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	want2, err := eng.ExecuteWith(q2, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const iters = 6
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
				got, err := eng.ExecuteWith(qi, Options{Workers: 2 + (g+i)%3})
				if err != nil {
					errs <- err
					return
				}
				if !ref.EqualRows(got) {
					errs <- fmt.Errorf("goroutine %d iter %d diverged under partitioned join", g, i)
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

// TestPerRowJoinAllocs bounds the per-joined-row allocation cost of the
// inline tuple path — the regression guard for the slot/tuple
// representation. The binding-map representation it replaced spent
// several map allocations per row; the tuple path amortises row storage
// through arenas and projects through the pipeline's ordinal-arena
// projection, so it must stay under a small constant per row (build-map
// growth and frontier slices dominate).
func TestPerRowJoinAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting under -short")
	}
	eng, q := joinHeavyEngine(t, 200)
	opts := Options{Workers: 1}
	res, err := eng.ExecuteWith(q, opts) // warm plan cache and edge indexes
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Stats.JoinedRows
	if rows == 0 {
		t.Fatalf("no joined rows")
	}
	avg := testing.AllocsPerRun(3, func() {
		if _, err := eng.ExecuteWith(q, opts); err != nil {
			t.Fatal(err)
		}
	})
	perRow := avg / float64(rows)
	t.Logf("per-step inline: %.3f allocs per joined row (total %.0f over %d rows)", perRow, avg, rows)
	// Measured ~3.9 allocs per joined row for the whole execution (~5.9
	// while the projection built a key string and a row slice per
	// distinct row) versus ~64 for the binding-map representation on the
	// same world. The bound leaves headroom for runtime changes while
	// still catching any return to per-row maps or string join keys.
	if perRow > 15 {
		t.Errorf("per-row join allocations = %.2f (total %.0f over %d rows), want <= 15", perRow, avg, rows)
	}
}

// TestPerRowBatchAllocs pins the batch plane's amortized allocation
// rate far below the per-step tuple path's: columns, hash vectors,
// selection masks, build stores and projection dedup sets are pooled,
// and projected rows are ordinals into a per-partition cell arena, so
// what is left is per-execution worker machinery and the answer itself.
func TestPerRowBatchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting under -short")
	}
	eng, q := joinHeavyEngine(t, 300)
	opts := Options{Workers: 4}
	res, err := eng.ExecuteWith(q, opts) // warm plan cache, edge indexes and batch pools
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Stats.JoinedRows
	if rows == 0 {
		t.Fatalf("no joined rows")
	}
	if res.Stats.Batches == 0 {
		t.Fatalf("batch path not engaged: %+v", res.Stats)
	}
	avg := testing.AllocsPerRun(3, func() {
		if _, err := eng.ExecuteWith(q, opts); err != nil {
			t.Fatal(err)
		}
	})
	perRow := avg / float64(rows)
	t.Logf("batch plane: %.3f allocs per joined row (total %.0f over %d rows)", perRow, avg, rows)
	// Measured ~0.66 allocs per joined row for the whole execution
	// (~1.0 under -race, whose sync.Pool drops a share of Puts) — down
	// from ~2.7 when every distinct projected row built a key string and
	// a row slice. The bound leaves headroom for runtime changes while
	// failing on any return to per-row key, row, column or hash-vector
	// allocation.
	if perRow > 2 {
		t.Errorf("per-row batch allocations = %.2f (total %.0f over %d rows), want <= 2", perRow, avg, rows)
	}
}

// TestNaNJoinMatchesReference regresses the NaN join contract: the
// reference paths key joins on Format(), where every NaN renders "NaN"
// and therefore joins, so the tuple path must join NaN with NaN too —
// on every executor, with identical rows.
func TestNaNJoinMatchesReference(t *testing.T) {
	eng, _ := joinHeavyEngine(t, 4)
	nan := math.NaN()
	eng.sources["jh1"].KB.MustAdd("nanA", "Price", kb.Number(nan))
	eng.sources["jh1"].KB.MustAdd("nanB", "Qty", kb.Number(nan))
	eng.InvalidateCache()
	q := MustParse("SELECT ?x ?y WHERE ?x Price ?p . ?y Qty ?p")
	want, err := eng.ExecuteWith(q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	foundNaN := false
	for _, r := range want.Rows {
		if r[0].Format() == "jh1.nanA" && r[1].Format() == "jh1.nanB" {
			foundNaN = true
		}
	}
	if !foundNaN {
		t.Fatalf("sequential reference did not join NaN prices: %v", want.Rows)
	}
	for _, opts := range []Options{{Workers: 1}, {Workers: 4}, {Workers: 4, MemoryLimit: 1 << 14}} {
		got, err := eng.ExecuteWith(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualRows(got) {
			t.Errorf("opts %+v diverged on NaN join: want %d rows, got %d", opts, len(want.Rows), len(got.Rows))
		}
	}
}

// TestAppendSlotKeyKindStrict locks the join-key encoding: values that
// format identically but differ in kind must produce different keys, and
// length prefixes must keep adjacent payloads unambiguous.
func TestAppendSlotKeyKindStrict(t *testing.T) {
	mk := func(vals ...kb.Value) string {
		return string(appendSlotKey(nil, tuple(vals), []int{0, 1}[:len(vals)]))
	}
	if mk(kb.Term("3000")) == mk(kb.Number(3000)) {
		t.Errorf("kind-blind join key: Term(3000) == Number(3000)")
	}
	if mk(kb.Term("3000")) == mk(kb.String("3000")) {
		t.Errorf("kind-blind join key: Term(3000) == String(3000)")
	}
	// Shifting bytes across the field boundary must change the key.
	if mk(kb.Term("ab"), kb.Term("c")) == mk(kb.Term("a"), kb.Term("bc")) {
		t.Errorf("ambiguous field framing in join key")
	}
	if mk(kb.Term("a\x00b"), kb.Term("c")) == mk(kb.Term("a"), kb.Term("b\x00c")) {
		t.Errorf("NUL-containing payloads collide")
	}
	if mk(kb.Number(1), kb.Number(2)) == mk(kb.Number(2), kb.Number(1)) {
		t.Errorf("number order ignored in join key")
	}
}

// TestTupleArenaReuse checks that an abandoned row (repeated-variable
// rejection) does not leak stale slots into the next committed row.
func TestTupleArenaReuse(t *testing.T) {
	a := &tupleArena{width: 2}
	first := a.next()
	first[0] = kb.Term("stale")
	// Abandon (no commit): the next row reuses the memory and overwrites
	// the same slot before committing.
	second := a.next()
	second[0] = kb.Term("fresh")
	a.commit()
	if second[0].Str != "fresh" || second[1].Kind != kb.KindTerm || second[1].Str != "" {
		t.Errorf("arena reuse leaked state: %v", second)
	}
	third := a.next()
	if third[0].Str != "" {
		t.Errorf("committed tuple memory reused: %v", third)
	}
}
