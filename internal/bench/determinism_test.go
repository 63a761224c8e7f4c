package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/query"
)

// TestPlannedExecutionMatchesSequential is the determinism regression:
// across every experiment query world, the planned paths — the per-step
// executor (inline, and partitioned/streamed on the small and shallow
// plans a pool runs per-step) and the batch pipeline (default, pinned
// partitions, tiny budget) — must return byte-identical Result rows and
// row ordering to the sequential reference, including on a plan-cache
// hit.
func TestPlannedExecutionMatchesSequential(t *testing.T) {
	type world struct {
		name string
		eng  *query.Engine
		qs   []query.Query
	}
	var worlds []world

	// The E8 reformulation-overhead world, articulation-level and
	// source-qualified vocabulary.
	for _, n := range []int{50, 150} {
		eng, artTerm, srcTerm := buildQueryWorld(n)
		worlds = append(worlds, world{
			name: fmt.Sprintf("E8/%d", n),
			eng:  eng,
			qs: []query.Query{
				query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf " + artTerm + " . ?x Price ?p"),
				query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf " + srcTerm + " . ?x Price ?p"),
			},
		})
	}

	// The E11 multi-source fan-out world (scaled down for test speed).
	feng, fq, _ := buildFanoutWorld(4, 300)
	worlds = append(worlds, world{name: "E11/4", eng: feng, qs: []query.Query{fq}})

	// The E12 join-heavy world (scaled down): the frontier stays at full
	// width through every step, stressing the partitioned joins.
	jeng, jq, _ := buildJoinWorld(2, 250, 4)
	worlds = append(worlds, world{name: "E12/4", eng: jeng, qs: []query.Query{jq}})

	// The E13 deep-chain world (scaled down): six keyed join steps with a
	// widening frontier, exercising cross-step streaming end to end.
	ceng, cq := buildChainWorld(4, 40, 6, 2)
	worlds = append(worlds, world{name: "E13/6", eng: ceng, qs: []query.Query{cq}})

	// The Fig. 2 paper world used by E1/E2, including a filter query and
	// a constant-subject query.
	res, carrier, factory := fixtures.GenerateTransport()
	peng, err := query.NewEngine(res.Art, map[string]*query.Source{
		"carrier": {Ont: carrier, KB: fixtures.CarrierKB()},
		"factory": {Ont: factory, KB: fixtures.FactoryKB()},
	})
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, world{name: "Fig2", eng: peng, qs: []query.Query{
		query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p"),
		query.MustParse("SELECT ?x WHERE ?x InstanceOf Vehicle"),
		query.MustParse("SELECT ?p WHERE carrier.MyCar Price ?p"),
		query.MustParse("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p . FILTER ?p > 3000"),
		query.MustParse("SELECT ?x ?r ?y WHERE ?x ?r ?y"),
	}})

	modes := []struct {
		name string
		opts query.Options
	}{
		{"inline", query.Options{Workers: 1}},
		{"pipelined-8", query.Options{Workers: 8}},        // cross-step pipeline on keyed chains
		{"pipelined-8-cached", query.Options{Workers: 8}}, // second run hits the plan cache
		{"pipelined-parts-3", query.Options{Workers: 8, Partitions: 3}},
		{"pool-2", query.Options{Workers: 2}},
		{"pool-4-parts-13", query.Options{Workers: 4, Partitions: 13}},
		// The tiny-budget leg: a 16KB cap forces every pipeline join
		// partition into grace-hash spilling (and forces shallow chains
		// onto the pipeline), yet rows must stay byte-identical.
		{"pipelined-8-tinybudget", query.Options{Workers: 8, MemoryLimit: 1 << 14}},
	}
	for _, w := range worlds {
		for qi, q := range w.qs {
			want, err := w.eng.ExecuteWith(q, query.Options{Sequential: true})
			if err != nil {
				t.Fatalf("%s q%d sequential: %v", w.name, qi, err)
			}
			for _, m := range modes {
				got, err := w.eng.ExecuteWith(q, m.opts)
				if err != nil {
					t.Fatalf("%s q%d %s: %v", w.name, qi, m.name, err)
				}
				if !want.EqualRows(got) {
					t.Errorf("%s q%d %s diverged: sequential %d rows, planned %d rows",
						w.name, qi, m.name, len(want.Rows), len(got.Rows))
				}
			}
		}
	}

	// The tiny budget must actually have exercised the spill path on the
	// deep-chain world (the other worlds may or may not cross their
	// per-partition reservations; the chain world's frontier always
	// does).
	spilled, err := ceng.ExecuteWith(cq, query.Options{Workers: 8, MemoryLimit: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Stats.SpilledPartitions == 0 || spilled.Stats.SpillRuns == 0 {
		t.Errorf("tiny-budget chain run did not spill: %+v", spilled.Stats)
	}
}

// TestE11PlannedBeatsSequential locks the E11 shape: rows identical in
// every row, joins reordered, and the planned path ahead of the
// sequential reference. The full ≥1.5x margin at n=32 is reported by
// `onionbench -exp E11`; the test asserts the direction at a small scale
// to stay robust under CI timing noise.
func TestE11PlannedBeatsSequential(t *testing.T) {
	tab := E11ParallelQuery([]int{2, 8})
	if len(tab.Rows) != 2 {
		t.Fatalf("E11 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "ok" {
			t.Errorf("E11 determinism check failed: %v", row)
		}
		if row[6] == "0" {
			t.Errorf("E11 planner did not reorder joins: %v", row)
		}
	}
	last := tab.Rows[len(tab.Rows)-1]
	sp := parseFloat(t, strings.TrimSuffix(last[5], "x"))
	if sp <= 1.0 {
		t.Errorf("planned path not faster at largest n: %v", last)
	}
}
