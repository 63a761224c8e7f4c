package bench

import (
	"testing"

	"repro/internal/query"
)

// allocLeg is one leg of an absolute allocation gate: an execution
// configuration, the path it must take, and its bound in allocations
// per joined row for the whole warm execution.
type allocLeg struct {
	name      string
	opts      query.Options
	pipelined bool
	bound     float64
}

// checkAllocsPerRow runs each leg warm under testing.AllocsPerRun and
// fails when a leg takes the wrong path or allocates above its bound.
func checkAllocsPerRow(t *testing.T, eng *query.Engine, q query.Query, legs []allocLeg) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation accounting under -short")
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			res, err := eng.ExecuteWith(q, leg.opts) // warm plan, indexes and pools
			if err != nil {
				t.Fatal(err)
			}
			rows := res.Stats.JoinedRows
			if rows == 0 {
				t.Fatal("no joined rows")
			}
			if got := res.Stats.PipelinedSteps > 0; got != leg.pipelined {
				t.Fatalf("pipelined = %v, want %v: %+v", got, leg.pipelined, res.Stats)
			}
			avg := testing.AllocsPerRun(3, func() {
				if _, err := eng.ExecuteWith(q, leg.opts); err != nil {
					t.Fatal(err)
				}
			})
			perRow := avg / float64(rows)
			t.Logf("%.3f allocs per joined row (total %.0f over %d rows)", perRow, avg, rows)
			if perRow > leg.bound {
				t.Errorf("allocs per joined row = %.3f, want <= %.2f", perRow, leg.bound)
			}
		})
	}
}

// TestE12WorldAllocsPerRow is the absolute allocation gate on the E12
// join-heavy world (every conjunct matches every instance, so the
// frontier stays at full width through three keyed joins), on the
// per-step path (Workers:1, inline joins) and on the batch pipeline
// (Workers:4). It fails on any return to per-row maps or unpooled
// batches on either planned path.
//
// Bounds, from the values measured before the per-step path adopted the
// streaming projection (2-CPU x86-64 box, GOMAXPROCS 1, 2 and 8):
//   - workers-1: 5.36 then (a key string and a row slice per distinct
//     row), 3.36 now, ~3.38 under -race; bound 8, 1.5x the earlier
//     value.
//   - workers-4: 0.31 (0.41-0.50 under -race, whose sync.Pool drops a
//     share of Puts); bound 1, 2x the worst race sample.
func TestE12WorldAllocsPerRow(t *testing.T) {
	eng, q, _ := buildJoinWorld(2, 500, 4)
	checkAllocsPerRow(t, eng, q, []allocLeg{
		{"workers-1", query.Options{Workers: 1}, false, 8},
		{"workers-4", query.Options{Workers: 4}, true, 1},
	})
}

// TestE13WorldAllocsPerRow is the same gate on the deep-chain world,
// where the frontier doubles at each of four keyed joins and every step
// boundary streams batches between pipeline stages. Measured 0.055
// allocs per joined row (0.10-0.12 under -race) on the same box; bound
// 0.25, 2x the worst race sample.
func TestE13WorldAllocsPerRow(t *testing.T) {
	eng, q := buildChainWorld(8, 60, 5, 2)
	checkAllocsPerRow(t, eng, q, []allocLeg{
		{"workers-4", query.Options{Workers: 4}, true, 0.25},
	})
}

// Allocation-tracking benchmarks: run with -benchmem (CI's bench smoke
// does) to follow the per-operation allocations of the planned path on
// the E11 fan-out, E12 join-heavy, E18 scaled join and deep-chain worlds.

func benchWorldExec(b *testing.B, eng *query.Engine, q query.Query, opts query.Options) {
	b.Helper()
	if _, err := eng.ExecuteWith(q, opts); err != nil { // warm plan + indexes
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecuteWith(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11WorldTupleJoins(b *testing.B) {
	eng, q, _ := buildFanoutWorld(8, 500)
	benchWorldExec(b, eng, q, query.Options{})
}

func BenchmarkE12WorldTupleJoins(b *testing.B) {
	eng, q, _ := buildJoinWorld(2, 500, 4)
	benchWorldExec(b, eng, q, query.Options{})
}

// BenchmarkE19WorldBatch runs the batch pipeline on the scaled-up join
// world (E18's size) with a forced pool, for -benchmem tracking and
// profiling.
func BenchmarkE19WorldBatch(b *testing.B) {
	eng, q, _ := buildJoinWorld(2, e18Instances, 4)
	benchWorldExec(b, eng, q, query.Options{Workers: chainWorkers})
}

func BenchmarkE13WorldPipelined(b *testing.B) {
	eng, q := buildChainWorld(8, 60, 5, 2)
	benchWorldExec(b, eng, q, query.Options{Workers: 4})
}

// TestE15BoundedMemoryCompletes locks the E15 acceptance shape on a
// scaled-down cap: the capped run must spill, keep its accounted peak
// under the cap, and return rows byte-identical to the unbounded
// pipeline and the sequential reference. The wall-clock bar (≤1.5x) is
// reported by `onionbench -exp E15` and recorded in BENCH_PR5.json;
// the test asserts only the timing-independent invariants so CI stays
// robust on shared runners.
func TestE15BoundedMemoryCompletes(t *testing.T) {
	r := runE15(e15Cap)
	if !r.identical {
		t.Errorf("capped rows diverged from unbounded/sequential")
	}
	if !r.forcedSpilling {
		t.Errorf("cap %d did not force spilling (unbounded peak %d)", r.cap, r.unboundedPeak)
	}
	if !r.peakUnderCap {
		t.Errorf("accounted peak %d exceeds cap %d", r.cappedPeak, r.cap)
	}
	if r.unboundedPeak <= r.cap {
		t.Errorf("world too small: unbounded peak %d under cap %d", r.unboundedPeak, r.cap)
	}
	if r.adaptiveSteps == 0 {
		t.Errorf("partition counts not planner-derived")
	}
	if r.rows == 0 {
		t.Errorf("bounded run produced no rows")
	}
}
