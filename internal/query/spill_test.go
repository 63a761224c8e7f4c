package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/articulation"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/query/mem"
	"repro/internal/rules"
)

// adversarialValues is the payload set the spill codec must round-trip
// kind-strictly: raw NUL bytes (the rowkey terminator), the 0xff escape
// byte, NaN (payload-canonicalised), signed zeros, infinities, and
// kind-colliding renderings (Term/String/Number that format alike).
var adversarialValues = []kb.Value{
	kb.Term("plain"),
	kb.Term(""),
	kb.Term("a\x00b"),
	kb.Term("\x00"),
	kb.Term("\x00\xff"),
	kb.Term("a\x00\x00c"),
	kb.Term("\xffc"),
	kb.Term("3000"),
	kb.String("3000"),
	kb.String("a\x00b"),
	kb.String(""),
	kb.Number(3000),
	kb.Number(0),
	kb.Number(math.Copysign(0, -1)),
	kb.Number(math.NaN()),
	kb.Number(math.Inf(1)),
	kb.Number(math.Inf(-1)),
	kb.Number(-2.5),
}

// TestValueKeyRoundTrip locks decodeValueKey as the exact inverse of
// appendValueKey — the property the spill wire format rests on. NaN is
// the one non-identity: every NaN decodes to the canonical quiet NaN,
// which is equal to the original under the engine's semantics.
func TestValueKeyRoundTrip(t *testing.T) {
	for _, v := range adversarialValues {
		enc := appendValueKey(nil, v)
		got, n, err := decodeValueKey(enc)
		if err != nil {
			t.Errorf("%v: decode error: %v", v, err)
			continue
		}
		if n != len(enc) {
			t.Errorf("%v: consumed %d of %d bytes", v, n, len(enc))
		}
		if !sameCell(v, got) {
			t.Errorf("round-trip diverged: %#v -> %#v", v, got)
		}
		// Re-encoding the decoded value must reproduce the bytes — the
		// byte-identical-rows contract of the spill leg.
		if string(appendValueKey(nil, got)) != string(enc) {
			t.Errorf("%v: re-encode differs from original encoding", v)
		}
	}
	// Concatenated fields decode in sequence without framing drift.
	var buf []byte
	for _, v := range adversarialValues {
		buf = appendValueKey(buf, v)
	}
	rest := buf
	for i, v := range adversarialValues {
		got, n, err := decodeValueKey(rest)
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		if !sameCell(v, got) {
			t.Fatalf("field %d diverged: %#v -> %#v", i, v, got)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding all fields", len(rest))
	}
}

// TestDecodeValueKeyRejectsMalformed locks the decoder's error paths:
// truncated and corrupt encodings must error, never mis-frame.
func TestDecodeValueKeyRejectsMalformed(t *testing.T) {
	for _, bad := range [][]byte{
		{},                          // empty
		{byte(kb.KindNumber)},       // truncated number
		{byte(kb.KindNumber), 1, 2}, // short number
		{byte(kb.KindTerm), 'a'},    // unterminated payload
		{7, 'a', 0},                 // unknown kind tag
	} {
		if _, _, err := decodeValueKey(bad); err == nil {
			t.Errorf("decode(%v) accepted malformed input", bad)
		}
	}
}

// FuzzValueKeyRoundTrip fuzzes the encode/decode pair with arbitrary
// payloads and float images.
func FuzzValueKeyRoundTrip(f *testing.F) {
	f.Add(uint8(0), "a\x00b", 3.5)
	f.Add(uint8(1), "\x00\xff", math.Inf(1))
	f.Add(uint8(2), "", math.NaN())
	f.Fuzz(func(t *testing.T, kind uint8, s string, n float64) {
		var v kb.Value
		switch kind % 3 {
		case 0:
			v = kb.Term(s)
		case 1:
			v = kb.String(s)
		default:
			v = kb.Number(n)
		}
		enc := appendValueKey(nil, v)
		got, used, err := decodeValueKey(enc)
		if err != nil {
			t.Fatalf("decode(%#v): %v", v, err)
		}
		if used != len(enc) {
			t.Fatalf("decode(%#v) consumed %d of %d", v, used, len(enc))
		}
		if !sameCell(v, got) {
			t.Fatalf("round-trip diverged: %#v -> %#v", v, got)
		}
	})
}

// TestSpillRunRoundTrip pushes tuples through a spill run and replays
// them: hashes and every adversarial slot value must survive.
func TestSpillRunRoundTrip(t *testing.T) {
	bud := mem.New(0)
	run, err := newSpillRun("", bud)
	if err != nil {
		t.Fatal(err)
	}
	defer run.close()
	width := 3
	var want []tuple
	var hashes []uint64
	for i, v := range adversarialValues {
		tup := tuple{v, adversarialValues[(i+5)%len(adversarialValues)], kb.Number(float64(i))}
		h := uint64(i) * 0x9E3779B97F4A7C15
		if err := run.add(tup, h); err != nil {
			t.Fatal(err)
		}
		want = append(want, tup)
		hashes = append(hashes, h)
	}
	arena := &tupleArena{width: width, blockTuples: spillDecodeBlock}
	i := 0
	err = run.replay(width, arena, func(tup tuple, h uint64) error {
		if h != hashes[i] {
			t.Errorf("tuple %d: hash %x, want %x", i, h, hashes[i])
		}
		for s := 0; s < width; s++ {
			if !sameCell(tup[s], want[i][s]) {
				t.Errorf("tuple %d slot %d: %#v, want %#v", i, s, tup[s], want[i][s])
			}
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("replayed %d of %d tuples", i, len(want))
	}
}

// spillAdversarialEngine builds a two-source world whose KB objects draw
// from the adversarial payload set, joined on a shared ?x chain — the
// world where a framing or kind bug in the spill path would corrupt rows.
func spillAdversarialEngine(t testing.TB, instances int, seed int64) (*Engine, Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sources := make(map[string]*Source, 2)
	var onts []*ontology.Ontology
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("adv%d", i)
		o := ontology.New(name)
		o.MustAddTerm("Item")
		for _, p := range []string{"P1", "P2", "P3"} {
			o.MustAddTerm(p)
			o.MustRelate("Item", ontology.AttributeOf, p)
		}
		store := kb.New(name)
		for k := 0; k < instances; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			for _, p := range []string{"P1", "P2", "P3"} {
				// A couple of values per predicate, drawn from the
				// adversarial set so join keys and projected cells carry
				// NULs, NaNs and kind collisions.
				for d := 0; d < 2; d++ {
					store.MustAdd(inst, p, adversarialValues[rng.Intn(len(adversarialValues))])
				}
			}
		}
		sources[name] = &Source{Ont: o, KB: store}
		onts = append(onts, o)
	}
	set := rules.NewSet(rules.MustParse("adv1.Item => adv2.Item"))
	res, err := articulation.Generate("advart", onts[0], onts[1], set, articulation.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Art, sources)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParse("SELECT ?x ?a ?b ?c WHERE ?x InstanceOf Item . ?x P1 ?a . ?x P2 ?b . ?x P3 ?c")
	return eng, q
}

// TestSpillJoinMatchesInMemory is the spill determinism property: under
// a budget tiny enough to force every join partition into grace-hash
// spilling, rows must stay byte-identical (EqualRows, kind-strict) to
// the sequential reference and to the unbounded pipeline — across
// adversarial rowkey payloads (NaN, raw NULs, 0xff, kind collisions)
// and across seeds.
func TestSpillJoinMatchesInMemory(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		eng, q := spillAdversarialEngine(t, 40, seed)
		want, err := eng.ExecuteWith(q, Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("seed %d: adversarial world produced no rows", seed)
		}
		unbounded, err := eng.ExecuteWith(q, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualRows(unbounded) {
			t.Fatalf("seed %d: unbounded pipeline diverged from sequential", seed)
		}
		spilled, err := eng.ExecuteWith(q, Options{Workers: 4, MemoryLimit: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		if spilled.Stats.SpilledPartitions == 0 {
			t.Fatalf("seed %d: 4KB budget did not spill: %+v", seed, spilled.Stats)
		}
		if !want.EqualRows(spilled) {
			t.Errorf("seed %d: spilled rows diverged: sequential %d rows, spilled %d rows",
				seed, len(want.Rows), len(spilled.Rows))
		}
		if spilled.Stats.JoinedRows != want.Stats.JoinedRows {
			t.Errorf("seed %d: JoinedRows = %d, want %d", seed,
				spilled.Stats.JoinedRows, want.Stats.JoinedRows)
		}
		// A pinned partition count routes the spilled rows differently;
		// they must still spill to the same rows.
		pinned, err := eng.ExecuteWith(q, Options{Workers: 3, Partitions: 7, MemoryLimit: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		if pinned.Stats.SpilledPartitions == 0 {
			t.Fatalf("seed %d: 7-partition 4KB budget did not spill: %+v", seed, pinned.Stats)
		}
		if !want.EqualRows(pinned) {
			t.Errorf("seed %d: 7-partition spilled rows diverged: sequential %d rows, spilled %d rows",
				seed, len(want.Rows), len(pinned.Rows))
		}
	}
}

// TestSpillDeepChain forces the deep-chain world through the spill path
// at several budgets (from "everything spills" to "some partitions
// fit") and demands byte-identical rows and deterministic JoinedRows at
// every cap.
func TestSpillDeepChain(t *testing.T) {
	eng, q := deepChainEngine(t, 60, 2)
	want, err := eng.ExecuteWith(q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{1 << 13, 1 << 16, 1 << 20} {
		got, err := eng.ExecuteWith(q, Options{Workers: 4, MemoryLimit: limit})
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if !want.EqualRows(got) {
			t.Errorf("limit %d: rows diverged (sequential %d, budgeted %d)",
				limit, len(want.Rows), len(got.Rows))
		}
		if got.Stats.JoinedRows != want.Stats.JoinedRows {
			t.Errorf("limit %d: JoinedRows = %d, want %d", limit,
				got.Stats.JoinedRows, want.Stats.JoinedRows)
		}
		if limit <= 1<<16 && got.Stats.SpilledPartitions == 0 {
			t.Errorf("limit %d: expected spilling: %+v", limit, got.Stats)
		}
		if got.Stats.SpilledPartitions > 0 && got.Stats.SpillRuns == 0 {
			t.Errorf("limit %d: spilled partitions without runs: %+v", limit, got.Stats)
		}
	}
}

// TestSpillWithFilters checks that per-step filters apply identically on
// the grace-hash completion path (filters run in the emit closure the
// spill join shares with the live path).
func TestSpillWithFilters(t *testing.T) {
	eng, _ := deepChainEngine(t, 50, 2)
	q := MustParse("SELECT ?x ?v0 WHERE ?x InstanceOf Item . ?x C1 ?v0 . ?x C2 ?v1 . FILTER ?v0 > 3 . FILTER ?v1 < 1010")
	want, err := eng.ExecuteWith(q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.ExecuteWith(q, Options{Workers: 4, MemoryLimit: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.SpilledPartitions == 0 {
		t.Fatalf("filter world did not spill: %+v", got.Stats)
	}
	if !want.EqualRows(got) {
		t.Errorf("filtered spill rows diverged: sequential %d, spilled %d",
			len(want.Rows), len(got.Rows))
	}
}

// TestBudgetUnlimitedNeverSpills locks the zero-limit contract: without
// MemoryLimit the pipeline accounts (BytesReserved > 0) but never
// degrades.
func TestBudgetUnlimitedNeverSpills(t *testing.T) {
	eng, q := deepChainEngine(t, 40, 2)
	got, err := eng.ExecuteWith(q, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.SpilledPartitions != 0 || got.Stats.SpillRuns != 0 {
		t.Errorf("unlimited run spilled: %+v", got.Stats)
	}
	if got.Stats.BytesReserved == 0 {
		t.Errorf("unlimited run not accounted: %+v", got.Stats)
	}
}

// TestAdaptivePartitionCounts locks the planner-derived partition
// sizing: a skewed world (one predicate carrying 8x the facts of
// another) gets per-step counts proportional to the estimates — the
// heavy step fans out wider than the light one — while an explicit
// Options{Partitions} pins every step and zeroes the adaptive counter.
func TestAdaptivePartitionCounts(t *testing.T) {
	name := "sk"
	o := ontology.New(name)
	o.MustAddTerm("Item")
	for _, p := range []string{"Light", "Heavy"} {
		o.MustAddTerm(p)
		o.MustRelate("Item", ontology.AttributeOf, p)
	}
	other := ontology.New("skother")
	other.MustAddTerm("Item")
	store := kb.New(name)
	for k := 0; k < 700; k++ {
		inst := fmt.Sprintf("I%d", k)
		store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
		store.MustAdd(inst, "Light", kb.Number(float64(k%7)))
		for d := 0; d < 8; d++ {
			store.MustAdd(inst, "Heavy", kb.Number(float64(k%11*10+d)))
		}
	}
	set := rules.NewSet(rules.MustParse("sk.Item => skother.Item"))
	res, err := articulation.Generate("skart", o, other, set, articulation.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineWith(res.Art, map[string]*Source{
		name:      {Ont: o, KB: store},
		"skother": {Ont: other},
	}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := MustParse("SELECT ?x ?l ?h WHERE ?x InstanceOf Item . ?x Light ?l . ?x Heavy ?h")
	plan, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	var light, heavy int
	for _, tp := range plan.Triples {
		switch tp.Triple {
		case "?x Light ?l":
			light = tp.Partitions
		case "?x Heavy ?h":
			heavy = tp.Partitions
		}
	}
	if light == 0 || heavy == 0 {
		t.Fatalf("join steps missing partition counts: %+v", plan.Triples)
	}
	if heavy <= light {
		t.Fatalf("heavy step (%d parts) not wider than light step (%d parts)", heavy, light)
	}
	got, err := eng.ExecuteWith(q, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.AdaptivePartitions == 0 {
		t.Fatalf("execution not adaptive: %+v", got.Stats)
	}
	// The recorded per-step counts must match the explained plan.
	seen := map[int]bool{}
	for _, p := range got.Stats.StepPartitions {
		seen[p] = true
	}
	if !seen[light] || !seen[heavy] {
		t.Fatalf("StepPartitions %v missing explained counts light=%d heavy=%d",
			got.Stats.StepPartitions, light, heavy)
	}
	pinned, err := eng.ExecuteWith(q, Options{Workers: 4, Partitions: 5})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Stats.AdaptivePartitions != 0 || pinned.Stats.JoinPartitions != 5 {
		t.Fatalf("Partitions override not pinned: %+v", pinned.Stats)
	}
	seq, err := eng.ExecuteWith(q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.EqualRows(got) || !seq.EqualRows(pinned) {
		t.Fatalf("partitioning variants diverged from sequential")
	}
}

// TestGraceJoinSplitAndRecurse drives the recursive re-partitioning
// path directly: a build run many times larger than the budget's
// chunk-capacity proxy must be split by hash bits into sub-run pairs
// (observable as extra runs) and still emit exactly the in-memory
// join's match set.
func TestGraceJoinSplitAndRecurse(t *testing.T) {
	const width = 2
	stp := &planStep{keySlots: []int{0}, newSlots: []int{1}}
	// Root cap 16KB: the split gate's chunk proxy is half that, so a
	// ~1000-tuple build run (88KB at width 2) must re-partition.
	root := mem.New(16 << 10)
	sp := &spillPart{width: width, bud: root.Child(0), io: root}
	if err := sp.ensureBuild(); err != nil {
		t.Fatal(err)
	}
	if err := sp.ensureProbe(); err != nil {
		t.Fatal(err)
	}
	hashOf := func(tup tuple) uint64 {
		return hashKey(appendSlotKey(nil, tup, stp.keySlots))
	}
	const buildN = 1000
	for i := 0; i < buildN; i++ {
		tup := tuple{kb.Term(fmt.Sprintf("k%d", i)), kb.Number(float64(i))}
		if err := sp.build.add(tup, hashOf(tup)); err != nil {
			t.Fatal(err)
		}
	}
	// Probe every third key, plus misses that can never match.
	want := make(map[string]bool)
	probeN := 0
	for i := 0; i < buildN; i += 3 {
		tup := tuple{kb.Term(fmt.Sprintf("k%d", i)), kb.Value{}}
		if err := sp.probe.add(tup, hashOf(tup)); err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprintf("k%d=%d", i, i)] = true
		probeN++
		miss := tuple{kb.Term(fmt.Sprintf("miss%d", i)), kb.Value{}}
		if err := sp.probe.add(miss, hashOf(miss)); err != nil {
			t.Fatal(err)
		}
	}
	runsBefore := sp.runs
	got := make(map[string]bool)
	err := sp.join(stp, func(l tuple, h uint64, rs []tuple) {
		for _, r := range rs {
			got[fmt.Sprintf("%s=%g", l[0].Str, r[1].Num)] = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sp.runs == runsBefore {
		t.Fatalf("oversized build run did not re-partition (runs still %d)", sp.runs)
	}
	if len(got) != probeN {
		t.Fatalf("matches = %d, want %d", len(got), probeN)
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing match %s", k)
		}
	}
	if used := root.Used(); used != 0 {
		t.Fatalf("budget not released after join: used = %d", used)
	}
}

// projWideEngine builds a two-source world whose *distinct answer set*
// dwarfs any single join build table: every instance carries one unique
// P value, so the streaming projection must retain one row per instance
// while each join partition only ever holds its share of the chain.
// This is the world where, before the projection learned to spill, the
// answer alone blew past Options{MemoryLimit} via MustReserve.
func projWideEngine(t testing.TB, instances int) (*Engine, Query) {
	t.Helper()
	sources := make(map[string]*Source, 2)
	var onts []*ontology.Ontology
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("pw%d", i)
		o := ontology.New(name)
		o.MustAddTerm("Item")
		o.MustAddTerm("P")
		o.MustRelate("Item", ontology.AttributeOf, "P")
		store := kb.New(name)
		for k := 0; k < instances; k++ {
			inst := fmt.Sprintf("%sI%d", name, k)
			store.MustAdd(inst, "InstanceOf", kb.Term("Item"))
			store.MustAdd(inst, "P", kb.Number(float64(i*1000000+k)))
		}
		sources[name] = &Source{Ont: o, KB: store}
		onts = append(onts, o)
	}
	set := rules.NewSet(rules.MustParse("pw1.Item => pw2.Item"))
	res, err := articulation.Generate("pwart", onts[0], onts[1], set, articulation.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(res.Art, sources)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParse("SELECT ?x ?v WHERE ?x InstanceOf Item . ?x P ?v")
	return eng, q
}

// TestProjectionSpillMatchesInMemory is satellite determinism for the
// spillable projection: under a cap the distinct answer set cannot fit,
// the dedup sets must rotate to sorted runs (Stats.ProjectionSpills)
// and the merged-back rows must stay byte-identical to the sequential
// reference — at the planner's partition counts and at a pinned one.
func TestProjectionSpillMatchesInMemory(t *testing.T) {
	eng, q := projWideEngine(t, 4000)
	want, err := eng.ExecuteWith(q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 8000 {
		t.Fatalf("projection world produced %d rows, want 8000", len(want.Rows))
	}
	unbounded, err := eng.ExecuteWith(q, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.Stats.ProjectionSpills != 0 {
		t.Fatalf("unbounded run rotated its projection: %+v", unbounded.Stats)
	}
	if !want.EqualRows(unbounded) {
		t.Fatal("unbounded pipeline diverged from sequential")
	}
	for _, leg := range []struct {
		name string
		opts Options
	}{
		{"batch", Options{Workers: 4, MemoryLimit: 1 << 19}},
		{"batch-parts-7", Options{Workers: 3, Partitions: 7, MemoryLimit: 1 << 19}},
	} {
		got, err := eng.ExecuteWith(q, leg.opts)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if got.Stats.ProjectionSpills == 0 {
			t.Fatalf("%s: answer set over the cap did not rotate the projection: %+v",
				leg.name, got.Stats)
		}
		if got.Stats.SpillRuns == 0 {
			t.Errorf("%s: projection spilled without runs: %+v", leg.name, got.Stats)
		}
		if got.Stats.SpilledBytes == 0 {
			t.Errorf("%s: projection spilled without bytes: %+v", leg.name, got.Stats)
		}
		if !want.EqualRows(got) {
			t.Errorf("%s: projection-spilled rows diverged: sequential %d rows, got %d",
				leg.name, len(want.Rows), len(got.Rows))
		}
	}
}

// TestHybridGraceJoin locks the hybrid degradation of the pipeline: at
// a cap that lets build tables partially reserve before the pool runs
// out, degraded partitions keep their frozen in-memory prefix
// (Stats.HybridJoins) and the completion — frozen-half replay plus
// grace-hash over the spilled half — still yields byte-identical rows.
func TestHybridGraceJoin(t *testing.T) {
	eng, q := deepChainEngine(t, 60, 2)
	want, err := eng.ExecuteWith(q, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		opts Options
	}{
		{"batch", Options{Workers: 4, MemoryLimit: 1 << 16}},
	} {
		got, err := eng.ExecuteWith(q, leg.opts)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if got.Stats.SpilledPartitions == 0 {
			t.Fatalf("%s: expected spilling at 64KB: %+v", leg.name, got.Stats)
		}
		if got.Stats.HybridJoins == 0 {
			t.Fatalf("%s: no partition degraded hybrid (frozen prefix kept): %+v",
				leg.name, got.Stats)
		}
		if !want.EqualRows(got) {
			t.Errorf("%s: hybrid rows diverged: sequential %d rows, got %d",
				leg.name, len(want.Rows), len(got.Rows))
		}
		if got.Stats.JoinedRows != want.Stats.JoinedRows {
			t.Errorf("%s: JoinedRows = %d, want %d", leg.name,
				got.Stats.JoinedRows, want.Stats.JoinedRows)
		}
	}
}
