package query

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/articulation"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/query/mem"
	"repro/internal/rules"
)

// analyticEngine builds the join-analytic world: two sources of
// `instances` Items with Price, Qty, Region and Batch attributes drawn
// from a fixed seed, articulated Item => Item.
func analyticEngine(tb testing.TB, instances int) *Engine {
	tb.Helper()
	sources := make(map[string]*Source, 2)
	var onts []*ontology.Ontology
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("ja%d", i)
		o := ontology.New(name)
		o.MustAddTerm("Item")
		for _, p := range []string{"Price", "Qty", "Region", "Batch"} {
			o.MustAddTerm(p)
			o.MustRelate("Item", ontology.AttributeOf, p)
		}
		store := kb.New(name)
		rng := rand.New(rand.NewSource(int64(31 + i)))
		for k := 0; k < instances; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			store.MustAdd(inst, "Price", kb.Number(float64(50+rng.Intn(400))))
			store.MustAdd(inst, "Qty", kb.Number(float64(1+rng.Intn(90))))
			store.MustAdd(inst, "Region", kb.Term(fmt.Sprintf("R%d", rng.Intn(8))))
			store.MustAdd(inst, "Batch", kb.Number(float64(rng.Intn(50))))
		}
		sources[name] = &Source{Ont: o, KB: store}
		onts = append(onts, o)
	}
	set := rules.NewSet(rules.MustParse("ja1.Item => ja2.Item"))
	res, err := articulation.Generate("jaart", onts[0], onts[1], set, articulation.Options{Lenient: true})
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := NewEngine(res.Art, sources)
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// analyticQueries are the join-analytic texts: 3- and 4-conjunct joins
// on ?x, so consecutive executions alternate plan widths.
var analyticQueries = []string{
	"SELECT ?x ?v0 WHERE ?x InstanceOf Item . ?x Price ?v0 . ?x Qty ?v1 . FILTER ?v0 > 100",
	"SELECT ?x ?v0 WHERE ?x InstanceOf Item . ?x Price ?v0 . ?x Qty ?v1 . ?x Region ?v2 . FILTER ?v0 > 100",
	"SELECT ?x ?v1 WHERE ?x InstanceOf Item . ?x Price ?v0 . ?x Qty ?v1 . FILTER ?v1 > 10",
	"SELECT ?x ?v0 ?v1 WHERE ?x InstanceOf Item . ?x Price ?v0 . ?x Qty ?v1 . ?x Region ?v2 . FILTER ?v1 > 10",
}

// BenchmarkJoinAnalyticWorld runs the join-analytic texts in rotation on
// a 2x6000-instance world with default options (batch executor,
// unbounded memory) and reports allocations per returned row.
func BenchmarkJoinAnalyticWorld(b *testing.B) {
	eng := analyticEngine(b, 6000)
	qs := make([]Query, len(analyticQueries))
	rows := 0
	for i, text := range analyticQueries {
		qs[i] = MustParse(text)
		res, err := eng.ExecuteWith(qs[i], Options{}) // warm plans, indexes, pools
		if err != nil {
			b.Fatal(err)
		}
		rows += len(res.Rows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecuteWith(qs[i%len(qs)], Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)/float64(len(qs)), "rows/op")
}

// TestMixedWidthSteadyAllocs is the steady-state allocation guard for
// a query mix of different plan widths: a 3-conjunct and a 4-conjunct
// join alternate on the join-heavy world, and from the second round on
// the batch executor must allocate almost nothing per joined row. The
// single-shape TestPerRowBatchAllocs could not see pools that drop
// every object of the other width; this guard fails on exactly that.
func TestMixedWidthSteadyAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting under -short")
	}
	if raceEnabled {
		// The race runtime's sync.Pool drops a random share of Puts, so a
		// pooled steady state is not observable under it.
		t.Skip("pooled steady state under -race")
	}
	eng, _ := joinHeavyEngine(t, 600)
	qs := []Query{
		MustParse(`SELECT ?x ?p WHERE ?x InstanceOf Item . ?x Price ?p . ?x Qty ?q . FILTER ?p > 100`),
		MustParse(`SELECT ?x ?p ?r WHERE ?x InstanceOf Item . ?x Price ?p . ?x Qty ?q . ?x Region ?r . FILTER ?p > 100`),
	}
	opts := Options{Workers: 4}
	round := func() int {
		rows := 0
		for _, q := range qs {
			res, err := eng.ExecuteWith(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Batches == 0 {
				t.Fatalf("batch path not engaged: %+v", res.Stats)
			}
			rows += res.Stats.JoinedRows
		}
		return rows
	}
	round() // warm plan caches, indexes and pools with both widths
	const rounds = 6
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rows := 0
	for i := 0; i < rounds; i++ {
		rows += round()
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(rows)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rows)
	t.Logf("mixed-width steady state: %.3f allocs/row, %.1f B/row over %d joined rows", allocs, bytes, rows)
	// Measured ~0.38 allocs and 210-290 B per joined row: the answer's
	// cells and row headers plus per-execution worker machinery. Pools
	// that drop every object of the other width measured 2.7 allocs and
	// ~2.2 KB per row on this mix.
	if allocs > 0.75 {
		t.Errorf("mixed-width allocations = %.3f per joined row, want <= 0.75", allocs)
	}
	if bytes > 512 {
		t.Errorf("mixed-width allocation bytes = %.1f per joined row, want <= 512", bytes)
	}
}

// batchCost is the footprint of a batch holding exactly one shape: full
// column capacity, the hash vector and the selection bitmap.
func batchCost(width, rows int) int64 {
	return int64(rows)*(int64(width)*valueBytes+8) + int64((rows+63)/64*8)
}

// TestBatchReshapeKeepsCapacity pins the re-shaping pool contract: a
// batch handed to a narrower execution keeps its extra columns for the
// next wider one, alternating widths allocates nothing, the charge is
// the capacity actually held, and a budgeted execution drops spare and
// wrong-capacity arrays so its charge is exactly its own shape's.
func TestBatchReshapeKeepsCapacity(t *testing.T) {
	a3 := &batchAlloc{width: 3, rows: batchRows, bud: mem.New(0)}
	a5 := &batchAlloc{width: 5, rows: batchRows, bud: mem.New(0)}
	b := &colBatch{}
	a5.reshape(b)
	if len(b.cols) != 5 || b.heldCost() != batchCost(5, batchRows) {
		t.Fatalf("fresh width-5 batch: %d cols, held %d, want 5/%d", len(b.cols), b.heldCost(), batchCost(5, batchRows))
	}
	spare := &b.cols[4][0]
	a3.reshape(b)
	if len(b.cols) != 3 || cap(b.cols) < 5 || &b.cols[:5][4][0] != spare {
		t.Fatalf("narrowing dropped the spare column: len %d cap %d", len(b.cols), cap(b.cols))
	}
	if b.heldCost() != batchCost(5, batchRows) {
		t.Fatalf("narrowed batch charges %d, want the held %d", b.heldCost(), batchCost(5, batchRows))
	}
	if n := testing.AllocsPerRun(50, func() { a5.reshape(b); a3.reshape(b) }); n != 0 {
		t.Fatalf("alternating widths allocated %.1f times per round", n)
	}
	a5.reshape(b)
	if &b.cols[4][0] != spare {
		t.Fatalf("widening reallocated a kept column")
	}

	budgeted := &batchAlloc{width: 3, rows: budgetedBatchRows, bud: mem.New(1 << 20)}
	budgeted.reshape(b)
	if b.heldCost() != batchCost(3, budgetedBatchRows) {
		t.Fatalf("budgeted batch charges %d, want its shape's %d", b.heldCost(), batchCost(3, budgetedBatchRows))
	}

	// The selection bitmap lives in the batch's own buffer: materialising
	// and resetting it on every flush allocates nothing.
	a5.reshape(b)
	b.n = 100
	if n := testing.AllocsPerRun(50, func() {
		b.ensureSel()
		b.clearRow(7)
		b.sel = nil
	}); n != 0 {
		t.Fatalf("ensureSel allocated %.1f times per flush", n)
	}
	b.ensureSel()
	b.clearRow(7)
	if b.selected() != 99 || b.live(7) || !b.live(8) {
		t.Fatalf("selection after clearRow(7): %d live", b.selected())
	}
}

// projCells are adversarial projection cells: kind collisions, NUL
// bytes and escape lookalikes, NaN payloads, and ±0.
var projCells = []kb.Value{
	kb.Term("a"), kb.Term("a\x00"), kb.Term("a\x00\xff"), kb.Term(""), kb.Term("3000"),
	kb.String("a"), kb.String("a\x00b"), kb.String("3000"),
	kb.Number(3000), kb.Number(0), kb.Number(math.Copysign(0, -1)), kb.Number(math.NaN()),
	kb.Number(math.Float64frombits(0xFFF8000000000001)), kb.Number(math.Inf(-1)), kb.Number(-2.5),
}

// TestStageProjMatchesRowKeys checks the ordinal projection against the
// row-key definition it replaces: across two partitions — one unbounded,
// one rotating its dedup set to spill runs — the merged rows are exactly
// the distinct row keys of everything added, in ascending key order.
func TestStageProjMatchesRowKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	root := mem.New(0)
	newProj := func(spill *mem.Budget) *stageProj {
		return &stageProj{sel: []int{0, 1, 2}, scratch: make([]kb.Value, 3),
			set: &projSet{tab: make([]int32, buildTabMinSize)}, rowCost: projRowCost(3),
			bud: root, spill: spill, dir: t.TempDir()}
	}
	parts := []*stageProj{newProj(nil), newProj(mem.New(80 << 10).Child(0))}
	want := map[string]bool{}
	for i := 0; i < 6000; i++ {
		row := tuple{projCells[rng.Intn(len(projCells))], projCells[rng.Intn(len(projCells))],
			kb.Number(float64(rng.Intn(400)))}
		want[string(appendRowKey(nil, row))] = true
		parts[i%2].add(row)
	}
	for _, pp := range parts {
		if err := pp.finish(); err != nil {
			t.Fatal(err)
		}
	}
	if !parts[1].spilled || len(parts[1].runs) < 2 {
		t.Fatalf("capped partition did not rotate: %d runs", len(parts[1].runs))
	}
	rows := mergeProjections(parts, root)
	if len(rows) != len(want) {
		t.Fatalf("merged %d rows, want %d distinct keys", len(rows), len(want))
	}
	var prev []byte
	for i, r := range rows {
		key := appendRowKey(nil, r)
		if !want[string(key)] {
			t.Fatalf("row %d %v was never added", i, r)
		}
		if i > 0 && bytes.Compare(prev, key) >= 0 {
			t.Fatalf("rows %d and %d out of key order", i-1, i)
		}
		prev = key
	}
}
