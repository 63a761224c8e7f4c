package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/articulation"
	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/rules"
)

// loadFig2 registers the paper's running example (carrier and factory
// with their KBs, articulated into transport) the way `oniond -fig2`
// does, and returns how long the articulation took.
func loadFig2(sys *core.System) (time.Duration, error) {
	for _, o := range []*ontology.Ontology{fixtures.Carrier(), fixtures.Factory()} {
		if err := sys.Register(o); err != nil {
			return 0, err
		}
	}
	for _, s := range []*kb.Store{fixtures.CarrierKB(), fixtures.FactoryKB()} {
		if err := sys.RegisterKB(s); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	_, err := sys.Articulate(fixtures.ArtName, "carrier", "factory", fixtures.TransportRules(), fixtures.GenOptions())
	return time.Since(t0), err
}

// Transport world parameters. Each grown source's fact log ends set-up
// growShortfall records short of core.DefaultSnapshotEvery, and a timed
// run adds more than that to each, so every run crosses one periodic
// snapshot per source.
const (
	factsPerInstance = 3
	growShortfall    = 2000
	growBatchFacts   = 1800 // facts per set-up /mutate request
	mutateInstances  = 10   // instances per timed /mutate request (30 facts)
	distinctTexts    = 1536 // > serve.DefaultCacheEntries (1024)
	rangeWidthEUR    = 4000 // a range filter spans ~1.7k rows
	minEUR, maxEUR   = 1000, 101000
)

// growInstances is how many instances set-up adds to each source.
var growInstances = (core.DefaultSnapshotEvery - growShortfall) / factsPerInstance

// instanceFacts generates instance k of a transport source. Prices are
// drawn in euros and stored in the source's currency, so the
// articulation's conversion functions map them back.
func instanceFacts(source string, k int, rng *rand.Rand) []kb.Fact {
	eur := float64(minEUR + rng.Intn(maxEUR-minEUR))
	if source == "carrier" {
		subj := fmt.Sprintf("C%d", k)
		class := []string{"PassengerCar", "SUV", "Trucks"}[rng.Intn(3)]
		return []kb.Fact{
			{Subject: subj, Predicate: "InstanceOf", Object: kb.Term(class)},
			{Subject: subj, Predicate: "Price", Object: kb.Number(eur * fixtures.PoundPerEuro)},
			{Subject: subj, Predicate: "Owner", Object: kb.String(fmt.Sprintf("O%d", rng.Intn(500)))},
		}
	}
	subj := fmt.Sprintf("F%d", k)
	class := []string{"Truck", "GoodsVehicle", "Vehicle"}[rng.Intn(3)]
	return []kb.Fact{
		{Subject: subj, Predicate: "InstanceOf", Object: kb.Term(class)},
		{Subject: subj, Predicate: "Price", Object: kb.Number(eur * fixtures.GuilderPerEuro)},
		{Subject: subj, Predicate: "Weight", Object: kb.Number(float64(1000 + rng.Intn(9000)))},
	}
}

// growFacts is the set-up growth of one source, in request-sized batches.
func growFacts(source string, seed int64) [][]kb.Fact {
	rng := rand.New(rand.NewSource(seed ^ int64(len(source))<<32))
	var batches [][]kb.Fact
	var cur []kb.Fact
	for k := 0; k < growInstances; k++ {
		cur = append(cur, instanceFacts(source, k, rng)...)
		if len(cur) >= growBatchFacts {
			batches = append(batches, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	return batches
}

// transportOp is one request of the transport-serve stream.
type transportOp struct {
	Text   string    // a query, or "" for a mutation
	Source string    // mutation target
	Facts  []kb.Fact // mutation batch
}

// transportStream is the seeded request stream of a transport-serve run.
type transportStream struct {
	Texts  []string      // every distinct query text, in popularity order
	Warmup []string      // untimed query-only warm-up: every text once
	Ops    []transportOp // the timed stream
}

// textFor builds the query text of popularity rank r. Kinds are assigned
// to ranks by a fixed pattern, so every seed has the same mix of cheap
// lookups and thousand-row range filters at each popularity level; the
// seed picks the constants.
func textFor(r int, rng *rand.Rand, instances int) string {
	inst := func() int { return rng.Intn(instances) }
	switch r % 20 {
	case 11: // 5% of the texts, ~3% of the draws
		lo := minEUR + rng.Intn(maxEUR-minEUR-rangeWidthEUR)
		return fmt.Sprintf("SELECT ?x ?p WHERE ?x InstanceOf Vehicle . ?x Price ?p . FILTER ?p >= %d . FILTER ?p < %d", lo, lo+rangeWidthEUR)
	case 1, 4, 9, 12, 17:
		return fmt.Sprintf(`SELECT ?x WHERE ?x Owner "O%d"`, rng.Intn(500))
	case 0, 2, 5, 10, 15, 18:
		return fmt.Sprintf("SELECT ?p WHERE C%d Price ?p", inst())
	case 3, 8, 14, 19:
		k := inst()
		return fmt.Sprintf("SELECT ?p ?w WHERE F%d Price ?p . F%d Weight ?w", k, k)
	default:
		k := inst()
		return fmt.Sprintf("SELECT ?p ?o WHERE C%d Price ?p . C%d Owner ?o", k, k)
	}
}

// newTransportStream draws n timed operations: every tenth is a small
// mutation, alternating between carrier and factory, and the rest are
// queries drawn Zipf-skewed from distinctTexts texts.
func newTransportStream(seed int64, n int) transportStream {
	rng := rand.New(rand.NewSource(seed))
	// Lookups may name instances the timed mutations add later.
	instances := growInstances + n/10*mutateInstances/2
	seen := make(map[string]bool, distinctTexts)
	var st transportStream
	for r := 0; len(st.Texts) < distinctTexts; {
		t := textFor(r, rng, instances)
		if seen[t] {
			continue
		}
		seen[t] = true
		st.Texts = append(st.Texts, t)
		r++
	}
	// Warm-up asks every text once, least popular first: the RAM cache
	// starts the timed run full, so every miss evicts and demotes from
	// the first request on, as it does for the rest of the run.
	for r := len(st.Texts) - 1; r >= 0; r-- {
		st.Warmup = append(st.Warmup, st.Texts[r])
	}
	zipf := rand.NewZipf(rng, 1.1, 1, distinctTexts-1)
	next := map[string]int{"carrier": growInstances, "factory": growInstances}
	mutations := 0
	for i := 0; i < n; i++ {
		if i%10 != 9 {
			st.Ops = append(st.Ops, transportOp{Text: st.Texts[zipf.Uint64()]})
			continue
		}
		src := [2]string{"carrier", "factory"}[mutations%2]
		mutations++
		var facts []kb.Fact
		for j := 0; j < mutateInstances; j++ {
			facts = append(facts, instanceFacts(src, next[src], rng)...)
			next[src]++
		}
		st.Ops = append(st.Ops, transportOp{Source: src, Facts: facts})
	}
	return st
}

// worldStats is what building an in-process world cost.
type worldStats struct {
	addNs      int64 // time inside kb.Store.Add
	facts      int
	articulate time.Duration
}

// itemWorld builds a two-source federation whose instances all belong
// to Item, articulated by <prefix>1.Item => <prefix>2.Item into
// <prefix>art, with gen adding instance k of a source.
func itemWorld(sys *core.System, prefix string, preds []string, instances int, seed int64,
	gen func(rng *rand.Rand, add func(s, p string, o kb.Value), name string, k int)) (worldStats, error) {
	var ws worldStats
	var onts [2]*ontology.Ontology
	for i := range onts {
		name := fmt.Sprintf("%s%d", prefix, i+1)
		o := ontology.New(name)
		o.MustAddTerm("Item")
		for _, p := range preds {
			o.MustAddTerm(p)
			o.MustRelate("Item", ontology.AttributeOf, p)
		}
		if err := sys.Register(o); err != nil {
			return ws, err
		}
		onts[i] = o
		store := kb.New(name)
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		var err error
		add := func(s, p string, v kb.Value) {
			if err != nil {
				return
			}
			t0 := time.Now()
			err = store.Add(s, p, v)
			ws.addNs += int64(time.Since(t0))
			ws.facts++
		}
		for k := 0; k < instances; k++ {
			gen(rng, add, name, k)
		}
		if err != nil {
			return ws, err
		}
		if err := sys.RegisterKB(store); err != nil {
			return ws, err
		}
	}
	set := rules.NewSet(rules.MustParse(prefix + "1.Item => " + prefix + "2.Item"))
	t0 := time.Now()
	if _, err := sys.Articulate(prefix+"art", onts[0].Name(), onts[1].Name(), set, articulation.Options{Lenient: true}); err != nil {
		return ws, err
	}
	ws.articulate = time.Since(t0)
	return ws, nil
}

// joinPreds are the join world's attributes (E12's world shape).
var joinPreds = []string{"Price", "Qty", "Region", "Batch"}

func joinInstance(rng *rand.Rand, add func(s, p string, o kb.Value), name string, k int) {
	inst := fmt.Sprintf("%sI%d", name, k)
	add(inst, "InstanceOf", kb.Term("Item"))
	add(inst, "Price", kb.Number(float64(50+rng.Intn(400))))
	add(inst, "Qty", kb.Number(float64(1+rng.Intn(90))))
	add(inst, "Region", kb.Term(fmt.Sprintf("R%d", rng.Intn(8))))
	add(inst, "Batch", kb.Number(float64(rng.Intn(50))))
}

// joinTexts are join-analytic's queries: 3- and 4-conjunct joins on ?x,
// each returning about 10k rows.
var joinTexts = []string{
	"SELECT ?x ?v0 WHERE ?x InstanceOf Item . ?x Price ?v0 . ?x Qty ?v1 . FILTER ?v0 > 100",
	"SELECT ?x ?v0 WHERE ?x InstanceOf Item . ?x Price ?v0 . ?x Qty ?v1 . ?x Region ?v2 . FILTER ?v0 > 100",
	"SELECT ?x ?v1 WHERE ?x InstanceOf Item . ?x Price ?v0 . ?x Qty ?v1 . FILTER ?v1 > 10",
	"SELECT ?x ?v0 ?v1 WHERE ?x InstanceOf Item . ?x Price ?v0 . ?x Qty ?v1 . ?x Region ?v2 . FILTER ?v1 > 10",
}

// chainPreds are the chain world's attributes (E13's world shape); the
// depth-5 query joins the first four.
var chainPreds = []string{"L1", "L2", "L3", "L4", "L5"}

const chainDup = 3 // values per (instance, attribute): the frontier triples per join

func chainInstance(rng *rand.Rand, add func(s, p string, o kb.Value), name string, k int) {
	inst := fmt.Sprintf("%sI%d", name, k)
	add(inst, "InstanceOf", kb.Term("Item"))
	for pi, p := range chainPreds {
		for d := 0; d < chainDup; d++ {
			add(inst, p, kb.Number(float64(pi*1000+rng.Intn(400)*chainDup+d)))
		}
	}
}

// chainTexts returns client c's capped-chain queries: the depth-5 chain
// under each of the given thresholds. Client offsets make every client's
// texts distinct (nothing coalesces), while thresholds between the same
// integers select the same rows, so both clients do the same work.
func chainTexts(c int, thresholds []int) []string {
	out := make([]string, len(thresholds))
	for i, t := range thresholds {
		out[i] = fmt.Sprintf("SELECT ?x ?v0 WHERE ?x InstanceOf Item . ?x L1 ?v0 . ?x L2 ?v1 . ?x L3 ?v2 . ?x L4 ?v3 . FILTER ?v0 > %d.%d", t, c+1)
	}
	return out
}
