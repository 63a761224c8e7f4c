package query

import (
	"context"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/query/mem"
	"repro/internal/rowcodec"
)

// pipeBatch is how many tuples a pipeline producer accumulates per
// partition before streaming the batch downstream. Larger than the
// scan-side streamBatch: cross-step traffic carries the whole frontier,
// so fewer, fuller batches cut channel and select overhead, and the
// batch pool makes their buffers free to recycle. Budgeted executions
// use the smaller batch and channel depth so the accounted in-flight
// volume stays well under the cap.
const (
	pipeBatch         = 256
	budgetedPipeBatch = 48
	pipeChanDepth     = 4
	budgetedChanDepth = 2
)

// batchPool recycles batch buffers between pipeline producers and
// consumers. A consumer returns a batch as soon as it has indexed or
// probed it (only the buffer arrays are recycled — the tuple values they
// point at live in arenas), so steady-state streaming allocates no new
// buffers at all instead of one tups+hashes pair per batch. The pool
// holds pointers, so Put itself never allocates a box.
var batchPool sync.Pool

func getBatch() *streamedBatch {
	if b, ok := batchPool.Get().(*streamedBatch); ok {
		return b
	}
	//lint:onion-ignore pool-recycled fixed-size buffer shared across queries; in-flight retention is charged per batch by the router (partRouter MustReserve at route/flush)
	return &streamedBatch{tups: make([]tuple, 0, pipeBatch), hashes: make([]uint64, 0, pipeBatch)}
}

func putBatch(b *streamedBatch) {
	b.tups = b.tups[:0]
	b.hashes = b.hashes[:0]
	batchPool.Put(b)
}

// This file is the cross-step streaming pipeline: the default planned
// execution path when the worker pool has more than one worker and the
// plan is a keyed join chain. The per-step executor (exec.go) fully
// materialises each join step's output before the next step's scans
// dispatch; here every step runs concurrently instead:
//
//   - all steps' scans share one bounded worker pool, dispatched in step
//     order, so a later step's sources scan while earlier joins probe;
//   - each join step is a set of partition workers that build a hash
//     table from the step's own scan output (routed by key hash) and
//     probe it with the accumulated tuples streamed from the previous
//     step — no frontier is ever materialised between steps;
//   - a step's probe output is re-hashed on the *next* step's key slots
//     at production time (plan.nextKeySlots) and streamed straight into
//     the next step's partition channels in batches;
//   - when a step's output is provably empty the pipeline cancels:
//     undispatched scans are skipped (the pipelined form of the per-step
//     empty-join short-circuit) and the stages drain out.
//
// Partition counts are planner-derived per step (plan.stepPartCount:
// estimate-proportional, skew-aware) unless Options{Partitions} pins a
// global count. The final step's output never materialises either: each
// last-stage partition dedups its probe output straight onto the SELECT
// slots (the streaming projection) and the executor merges the sorted
// per-partition row sets.
//
// Memory governance: every stage partition charges a child reservation
// of the per-query budget (internal/query/mem) for its build table and
// pending probe queue. A partition whose reservation runs out degrades
// in two steps: first the pending probe queue overflows to a temp-file
// run (the build table stays in memory and the run is replayed through
// it once complete); if the build table itself cannot reserve, the
// partition becomes a grace-hash join (spill.go) — both sides spill to
// runs, recursively sub-partitioned until each piece joins within
// budget. Rows, JoinedRows and the projection are byte-identical to
// every other path, spilled or not: tuple arrival order varies run to
// run, but the row *set* per partition is fixed by the key hash, the
// spill wire format round-trips kind-strictly, and the final ordered
// merge normalises order.

// partRouter batches tuples toward one step's partition channels,
// hashing each tuple once on the consuming step's key slots. The hash
// travels with the batch, so the consumer indexes or probes without
// re-encoding keys; in-flight batch bytes are charged to the root budget
// at send and released by the consumer at receipt.
type partRouter struct {
	chans     []chan *streamedBatch
	slots     []int
	local     []*streamedBatch
	buf       []byte
	root      *mem.Budget
	tc        int64
	batchSize int
	// batches and count are per-owner totals, merged deterministically
	// after the owning goroutine finishes.
	batches int
	count   int64
}

func newPartRouter(chans []chan *streamedBatch, slots []int, root *mem.Budget, tc int64, batchSize int) *partRouter {
	return &partRouter{chans: chans, slots: slots, local: make([]*streamedBatch, len(chans)),
		root: root, tc: tc, batchSize: batchSize}
}

func (rt *partRouter) send(t tuple) {
	rt.buf = appendSlotKey(rt.buf[:0], t, rt.slots)
	rt.sendHashed(t, hashKey(rt.buf))
}

// sendHashed routes a tuple whose key hash is already known — the
// aligned-chain fast path, where a stage forwards probe output under its
// incoming hash (same key slots downstream, so the same partition) and
// never re-encodes the key.
func (rt *partRouter) sendHashed(t tuple, h uint64) {
	p := int(h % uint64(len(rt.chans)))
	lb := rt.local[p]
	if lb == nil {
		lb = getBatch()
		rt.local[p] = lb
	}
	lb.tups = append(lb.tups, t)
	lb.hashes = append(lb.hashes, h)
	rt.count++
	if len(lb.tups) >= rt.batchSize {
		rt.root.MustReserve(int64(len(lb.tups)) * rt.tc)
		rt.chans[p] <- lb
		rt.local[p] = nil
		rt.batches++
	}
}

func (rt *partRouter) flush() {
	for p, b := range rt.local {
		if b != nil && len(b.tups) > 0 {
			rt.root.MustReserve(int64(len(b.tups)) * rt.tc)
			rt.chans[p] <- b
			rt.local[p] = nil
			rt.batches++
		}
	}
}

// stepFilterSets splits the query's filters by the step after which they
// first apply (every variable bound), in join order — the pipelined
// equivalent of applyTupleFilters' as-soon-as-bound rule, applied
// per-tuple as rows stream between steps.
func stepFilterSets(q Query, plan *execPlan) [][]Filter {
	sets := make([][]Filter, len(plan.steps))
	bound := make(map[string]bool)
	taken := make([]bool, len(q.Filters))
	for si := range plan.steps {
		for _, v := range plan.steps[si].vars {
			bound[v] = true
		}
		for fi, f := range q.Filters {
			if !taken[fi] && bound[f.Var] {
				taken[fi] = true
				sets[si] = append(sets[si], f)
			}
		}
	}
	return sets
}

// passFilters applies one step's filter set to a single tuple.
func passFilters(t tuple, fs []Filter, plan *execPlan) bool {
	for _, f := range fs {
		if !f.Accepts(t[plan.slotOf[f.Var]]) {
			return false
		}
	}
	return true
}

// makePartChans builds one step's partition channels. The small buffer
// absorbs producer/consumer jitter; stage workers always keep consuming
// (select over both inputs), so bounded buffers cannot deadlock the
// pipeline — they only apply backpressure upstream.
func makePartChans(parts, depth int) []chan *streamedBatch {
	chs := make([]chan *streamedBatch, parts)
	for p := range chs {
		chs[p] = make(chan *streamedBatch, depth)
	}
	return chs
}

// stageProj is one last-stage partition's streaming projection: probe
// output dedups straight onto the SELECT slots as it is emitted, so the
// final frontier is never materialised — only the partition's distinct
// projected rows are retained. Rows are ordinals into one cell arena per
// partition (blocks of selN-cell rows, never moved once written, so the
// answer rows are subslices of it); dedup is a flat open-addressing table
// of ordinals keyed by hashCell over the SELECT cells with SameCell as
// the equality — the build store's scheme — so adding a row builds no
// key and allocates nothing but arena blocks. At stage end the ordinals
// are sorted with rowcodec.CompareRows, whose order is byte-identical to
// the row keys every other path sorts on, and the executor merges the
// sorted partitions. Under Options{MemoryLimit} the dedup set is itself
// spillable (projspill.go): it reserves from the shared pool and rotates
// to sorted temp-file runs when refused — the only place row keys are
// ever built — so even a distinct answer set larger than the cap stays
// within it.
type stageProj struct {
	sel     []int
	scratch []kb.Value // the row being added, gathered from its sides
	set     *projSet
	blocks  [][]kb.Value // cell arena: block k holds 16<<k rows (projBlockShift)
	n       int          // rows in the arena (ordinals 0..n-1)
	rowCost int64
	bud     *mem.Budget // root: final rows and run write buffers (MustReserve)

	// Spill state (limit-governed executions only; projspill.go).
	spill    *mem.Budget // spillable dedup-set reservations (nil: never spills)
	dir      string
	runs     []*projRun
	charged  int64 // bytes currently reserved on spill
	headroom int64 // granted but not yet consumed by row charges
	bytes    int64 // record bytes written across runs (Stats.SpilledBytes)
	spilled  bool  // rotated at least once (Stats.ProjectionSpills)
	err      error
}

// projSet is a projection's transient dedup and sort state: tab is the
// open-addressing table (1+ordinal, 0 = empty), hashes[r] is row r's
// hash, ord the sorted ordinals finish leaves for the merge. None of it
// outlives the execution, so it is pooled.
type projSet struct {
	tab    []int32
	used   int
	hashes []uint64
	ord    []int32
}

// projSetPool recycles dedup sets across partitions and executions: a
// recycled set keeps its table, hash-vector and ordinal capacity, and it
// has no width, so every query shape shares it. Live rows are charged
// per row (ensure in add); an idle pooled set holds none.
var projSetPool sync.Pool

// projBlockShift sizes the first arena block (16 rows); each further
// block doubles, so a partition's cells take O(log rows) allocations and
// are never copied.
const projBlockShift = 4

// projRowOverhead is the per-row dedup state beside the cells: the row
// hash (8 bytes), its table slot (the table stays between 3/8 and 3/4
// full, so at most ~11 bytes) and its sorted ordinal (4 bytes).
const projRowOverhead = 24

// projRowCost is the accounted retention of one distinct projected row:
// its cells in the arena plus projRowOverhead. The answer's row headers
// are charged once, at the ordered merge.
func projRowCost(selN int) int64 {
	return int64(selN)*valueBytes + projRowOverhead
}

// newStageProj builds one partition's projection. pool, when non-nil,
// is the spillable reservation pool the dedup set draws on (the
// limit-governed executors pass their spill pool; unbounded executions
// pass nil and the set charges the root as un-spillable state).
func newStageProj(q Query, plan *execPlan, bud, pool *mem.Budget, dir string) *stageProj {
	sel := make([]int, len(q.Select))
	for i, v := range q.Select {
		sel[i] = plan.slotOf[v]
	}
	set, ok := projSetPool.Get().(*projSet)
	if !ok {
		set = &projSet{tab: make([]int32, buildTabMinSize)}
	}
	//lint:onion-ignore one row of scratch cells per partition, overwritten for every added row and never retained
	pp := &stageProj{sel: sel, scratch: make([]kb.Value, len(sel)), set: set,
		rowCost: projRowCost(len(sel)), bud: bud}
	if pool != nil {
		pp.spill = pool.Child(0)
		pp.dir = dir
	}
	return pp
}

// row returns arena row r's cells (capacity-capped, so an append by the
// caller can never run into the next row).
func (pp *stageProj) row(r int32) []kb.Value {
	q := uint(r)>>projBlockShift + 1
	k := bits.Len(q) - 1
	off := (int(r) - (1<<k-1)<<projBlockShift) * len(pp.sel)
	return pp.blocks[k][off : off+len(pp.sel) : off+len(pp.sel)]
}

// appendRow copies cells into the arena as ordinal pp.n and returns it.
// Every caller has charged the row (projRowCost) before appending it.
func (pp *stageProj) appendRow(cells []kb.Value) int32 {
	r := int32(pp.n)
	if k := len(pp.blocks); pp.n == (1<<k-1)<<projBlockShift {
		//lint:onion-ignore arena block: each row placed in it is charged by the caller (ensure in addScratch, the root MustReserve in mergeRuns); a block is at most twice the rows charged so far
		pp.blocks = append(pp.blocks, make([]kb.Value, (1<<k<<projBlockShift)*len(pp.sel)))
	}
	copy(pp.row(r), cells)
	pp.n++
	return r
}

// add projects a row-major tuple (the row-at-a-time executor's last
// stage).
func (pp *stageProj) add(t tuple) {
	for k, s := range pp.sel {
		pp.scratch[k] = t[s]
	}
	pp.addScratch()
}

// addBatchRow is add for a columnar batch row (the batch executor's
// last stage).
func (pp *stageProj) addBatchRow(b *colBatch, i int) {
	for k, s := range pp.sel {
		pp.scratch[k] = b.cols[s][i]
	}
	pp.addScratch()
}

// addScratch dedups the row gathered in pp.scratch into the set,
// appending it to the arena when it is new.
func (pp *stageProj) addScratch() {
	h := uint64(batchHashSeed)
	for k := range pp.scratch {
		h = hashCell(h, &pp.scratch[k])
	}
	set := pp.set
	if (set.used+1)*4 > len(set.tab)*3 {
		pp.growSet()
	}
	slot := pp.probe(h)
	if slot < 0 {
		return // duplicate
	}
	// Charge before inserting: a rotation inside ensure flushes the
	// buffered set to a run (emptying the table), and the new row
	// belongs to the next set.
	runs := len(pp.runs)
	pp.ensure(pp.rowCost)
	if len(pp.runs) != runs {
		slot = pp.probe(h)
	}
	set.tab[slot] = pp.appendRow(pp.scratch) + 1
	set.hashes = append(set.hashes, h)
	set.used++
}

// probe looks up the scratch row under hash h: -1 when the set already
// holds it, otherwise the empty table slot where it belongs.
func (pp *stageProj) probe(h uint64) int {
	tab := pp.set.tab
	mask := uint64(len(tab) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := tab[i]
		if e == 0 {
			return int(i)
		}
		if pp.set.hashes[e-1] == h && sameRow(pp.row(e-1), pp.scratch) {
			return -1
		}
	}
}

// growSet doubles the dedup table and re-places every row in ordinal
// order from its stored hash.
func (pp *stageProj) growSet() {
	set := pp.set
	set.tab = make([]int32, 2*len(set.tab))
	mask := uint64(len(set.tab) - 1)
	for r, h := range set.hashes {
		i := h & mask
		for set.tab[i] != 0 {
			i = (i + 1) & mask
		}
		set.tab[i] = int32(r) + 1
	}
}

// resetSet empties the dedup set and the arena (keeping their capacity).
func (pp *stageProj) resetSet() {
	clear(pp.set.tab)
	pp.set.used = 0
	pp.set.hashes = pp.set.hashes[:0]
	pp.n = 0
}

// sortOrdinals fills set.ord with the arena's ordinals in row order.
func (pp *stageProj) sortOrdinals() []int32 {
	ord := pp.set.ord[:0]
	for r := 0; r < pp.n; r++ {
		ord = append(ord, int32(r))
	}
	// Rows are unique within the arena (deduped on add), so the order is
	// total and the unstable sort deterministic.
	slices.SortFunc(ord, func(a, b int32) int { return rowcodec.CompareRows(pp.row(a), pp.row(b)) })
	pp.set.ord = ord
	return ord
}

// release hands the projection's dedup state back to the pool; the
// arena (the answer's cells) stays with the returned rows.
func (pp *stageProj) release() {
	if pp.set == nil {
		return
	}
	pp.resetSet()
	pp.set.ord = pp.set.ord[:0]
	projSetPool.Put(pp.set)
	pp.set = nil
}

// sameRow reports cell-wise equality under the engine's value semantics.
func sameRow(a, b []kb.Value) bool {
	for k := range a {
		if !sameCell(a[k], b[k]) {
			return false
		}
	}
	return true
}

// mergeProjections merges the last-stage partitions' sorted rows into
// the deterministic global row order, dropping cross-partition
// duplicates (two partitions can project onto the same row even though
// their join keys differ; equal rows are cell-identical, so pop order
// among them cannot change the output), and returns every partition's
// dedup state to the pool. A min-heap over the partition heads keeps
// the per-row cost at log(partitions) row compares; below mergeHeapMin
// partitions a linear head scan is cheaper.
func mergeProjections(parts []*stageProj, bud *mem.Budget) [][]kb.Value {
	total := 0
	for _, pp := range parts {
		total += len(pp.set.ord)
	}
	// The merged slice shares its cells with the (already charged)
	// partition arenas; only the row headers are new retention.
	bud.MustReserve(int64(total) * 24)
	rows := make([][]kb.Value, 0, total)
	// heads[g] is partition g's current row; nil once it is drained.
	idx := make([]int, len(parts))
	heads := make([][]kb.Value, len(parts))
	advance := func(g int) {
		heads[g] = nil
		if ord := parts[g].set.ord; idx[g] < len(ord) {
			heads[g] = parts[g].row(ord[idx[g]])
			idx[g]++
		}
	}
	emit := func(row []kb.Value) {
		if len(rows) > 0 && rowcodec.CompareRows(rows[len(rows)-1], row) == 0 {
			return
		}
		rows = append(rows, row)
	}
	for g := range parts {
		advance(g)
	}
	if len(parts) < mergeHeapMin {
		for {
			best := -1
			for g, hd := range heads {
				if hd != nil && (best == -1 || rowcodec.CompareRows(hd, heads[best]) < 0) {
					best = g
				}
			}
			if best == -1 {
				break
			}
			emit(heads[best])
			advance(best)
		}
	} else {
		// h[0..len) holds partition indices ordered by each one's head.
		less := func(a, b int) bool { return rowcodec.CompareRows(heads[a], heads[b]) < 0 }
		h := make([]int, 0, len(parts))
		for g, hd := range heads {
			if hd != nil {
				h = append(h, g)
			}
		}
		siftDown := func(i int) {
			for {
				l := 2*i + 1
				if l >= len(h) {
					return
				}
				m := l
				if r := l + 1; r < len(h) && less(h[r], h[l]) {
					m = r
				}
				if !less(h[m], h[i]) {
					return
				}
				h[i], h[m] = h[m], h[i]
				i = m
			}
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftDown(i)
		}
		for len(h) > 0 {
			g := h[0]
			emit(heads[g])
			if advance(g); heads[g] == nil {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			siftDown(0)
		}
	}
	for _, pp := range parts {
		pp.release()
	}
	return rows
}

// mergeHeapMin is the partition count at which mergeProjections switches
// from a linear head scan to the heap.
const mergeHeapMin = 8

// executePipelined runs a keyed join chain as a cross-step streaming
// pipeline. Callers guarantee: more than one worker, at least two steps,
// and every step after the first has key slots (plan.chainKeyed). A
// cancelled context rides the same machinery as the provably-empty
// short-circuit: remaining scan dispatch is skipped, the stages drain,
// and ctx.Err() is returned instead of the partial result. A spill I/O
// failure drains the same way and surfaces as the returned error.
func (e *Engine) executePipelined(ctx context.Context, q Query, plan *execPlan, opts Options, bud *mem.Budget, res *Result) error {
	st := &res.Stats
	width := len(plan.slotNames)
	workers := resolveWorkers(opts)
	n := len(plan.steps)
	filters := stepFilterSets(q, plan)
	tc := tupleCost(width)
	pipeT0 := time.Now()

	// Per-step planner-derived partition counts (or the global override).
	parts := make([]int, n)
	totalParts := 0
	for si := 1; si < n; si++ {
		parts[si] = plan.stepPartCount(si, opts, workers)
		totalParts += parts[si]
	}
	if opts.Partitions == 0 {
		st.AdaptivePartitions = n - 1
	}

	// Tracing: one span per step, opened up front — every stage runs
	// concurrently from pipeline start, so span offsets reflect the real
	// overlap. Scan and partition sub-spans hang off these; stepSpan
	// returns nil when tracing is off, and every recording site guards
	// its argument computation behind that nil.
	var stepSpans []*obs.Span
	if opts.Trace != nil {
		stepSpans = make([]*obs.Span, n)
		for si := range plan.steps {
			s := opts.Trace.Child("step " + strconv.Itoa(si+1) + ": " + plan.steps[si].triple.String())
			s.SetInt("est_rows", int64(plan.steps[si].est))
			if si > 0 {
				s.SetInt("partitions", int64(parts[si]))
			}
			stepSpans[si] = s
		}
	}
	stepSpan := func(si int) *obs.Span {
		if stepSpans == nil {
			return nil
		}
		return stepSpans[si]
	}

	// Budget wiring: every stage partition's spillable retention (build
	// table + pending probe queue) reserves from one shared pool — half
	// the cap — so memory fills first-come and only the overflow
	// degrades to disk (the fleet-level hybrid: a 2x-over-cap workload
	// spills roughly half its partitions, not all of them). The other
	// half of the cap is headroom for the fixed working state charged
	// via MustReserve (arena blocks, in-flight batches, spill write
	// buffers, the projected rows) and for the grace joins' finish-time
	// chunk reservations, which draw on the root directly.
	limit := opts.MemoryLimit
	batchSize, chanDepth := pipeBatch, pipeChanDepth
	poolLimit := int64(0)
	if limit > 0 {
		batchSize, chanDepth = budgetedPipeBatch, budgetedChanDepth
		// Floor at one byte: a degenerate limit must yield a pool that
		// refuses everything (spill-everything), not an unlimited one.
		poolLimit = max(limit/2, 1)
	}
	spillPool := bud.Child(poolLimit)
	// The last stage's projection dedup sets draw on the same pool —
	// but only under a limit; unbounded executions keep the historical
	// root accounting and never rotate.
	var projPool *mem.Budget
	if limit > 0 {
		projPool = spillPool
	}

	// Wiring: stage si (1..n-1) builds from scanCh[si] and probes
	// upCh[si]; both carry hashes on steps[si].keySlots. Stage si routes
	// its output into upCh[si+1] hashed on steps[si].nextKeySlots.
	upCh := make([][]chan *streamedBatch, n)
	scanCh := make([][]chan *streamedBatch, n)
	for si := 1; si < n; si++ {
		upCh[si] = makePartChans(parts[si], chanDepth)
		scanCh[si] = makePartChans(parts[si], chanDepth)
	}

	// cancel fires when some step's output is provably empty (the final
	// result is empty regardless of the remaining scans) or when a spill
	// I/O error makes the result unreachable: dispatch stops and the
	// stages drain.
	cancel := make(chan struct{})
	var cancelOnce sync.Once
	cancelFn := func() { cancelOnce.Do(func() { close(cancel) }) }
	var errOnce sync.Once
	var pipeErr error
	setErr := func(err error) {
		if err == nil {
			return
		}
		errOnce.Do(func() { pipeErr = err })
		cancelFn()
	}

	// Per-(step, scan) private stats, merged in (step, source) order
	// after the pipeline drains, so the work counters are deterministic
	// under any scheduling (modulo cancellation, which is timing-
	// dependent by nature and only ever skips work).
	taskStats := make([][]Stats, n)
	liveTasks := make([][]int, n)
	total := 0
	for si := range plan.steps {
		stp := &plan.steps[si]
		st.SourceScans += len(stp.scans)
		taskStats[si] = make([]Stats, len(stp.scans))
		for j, sc := range stp.scans {
			if !sc.view.skip {
				liveTasks[si] = append(liveTasks[si], j)
			}
		}
		total += len(liveTasks[si])
	}

	// stepOut[si] counts the tuples step si emitted downstream (step 0:
	// scan output after filters; stages: probe output after filters).
	stepOut := make([]int64, n)
	// stepDur[si] is the step's wall-clock from pipeline start to its
	// completion, stamped by the step's closer (Stats.StepDurNs).
	stepDur := make([]int64, n)
	// Per-stage-partition counters, merged in (step, partition) order
	// afterwards.
	stageBatches := make([][]int, n)
	stageSpilled := make([][]int, n)
	stageHybrid := make([][]int, n)
	stageRuns := make([][]int, n)
	stageBytes := make([][]int64, n)
	for si := 1; si < n; si++ {
		stageBatches[si] = make([]int, parts[si])
		stageSpilled[si] = make([]int, parts[si])
		stageHybrid[si] = make([]int, parts[si])
		stageRuns[si] = make([]int, parts[si])
		stageBytes[si] = make([]int64, parts[si])
	}
	// Last-stage projection spill counters (one slot per partition).
	projSpills := make([]int, parts[n-1])
	projRunCnt := make([]int, parts[n-1])
	projRunBytes := make([]int64, parts[n-1])

	// Scan worker pool, shared by every step's scans, dispatched in step
	// order: step 0 feeds upCh[1] directly (hashed on step 1's keys);
	// step si>=1 feeds its own build side scanCh[si].
	scanWg := make([]sync.WaitGroup, n)
	for si := range plan.steps {
		scanWg[si].Add(len(liveTasks[si]))
	}
	runScan := func(si, j int) {
		defer scanWg[si].Done()
		stp := &plan.steps[si]
		sc := stp.scans[j]
		ts := &taskStats[si][j]
		var ss *obs.Span
		if sp := stepSpan(si); sp != nil {
			ss = sp.Child("scan " + sc.name)
			defer func() {
				ss.SetInt("rows", int64(ts.EdgeRows+ts.FactRows))
				ss.End()
			}()
		}
		arena := newArena(width, bud)
		defer arena.close()
		var rt *partRouter
		if si == 0 {
			rt = newPartRouter(upCh[1], stp.nextKeySlots, bud, tc, batchSize)
		} else {
			rt = newPartRouter(scanCh[si], stp.keySlots, bud, tc, batchSize)
		}
		sink := func(t tuple) {
			if si == 0 && !passFilters(t, filters[0], plan) {
				return
			}
			rt.send(t)
		}
		e.scanMatch(sc.name, sc.src, stp.triple, sc.view, ts, true, tupleEmit(stp, arena, sink))
		rt.flush()
		ts.StreamedBatches += rt.batches
		if si == 0 {
			atomic.AddInt64(&stepOut[0], rt.count)
		}
	}

	poolSize := workers
	if poolSize > total {
		poolSize = total
	}
	if poolSize > st.Workers {
		st.Workers = poolSize
	}
	type scanJob struct{ si, j int }
	jobs := make(chan scanJob)
	var poolWg sync.WaitGroup
	for w := 0; w < poolSize; w++ {
		poolWg.Add(1)
		go func() {
			defer poolWg.Done()
			for jb := range jobs {
				runScan(jb.si, jb.j)
			}
		}()
	}
	dispatcherDone := make(chan struct{})
	var dispatched, cancelled int
	go func() {
		defer close(dispatcherDone)
		defer close(jobs)
		for si := 0; si < n; si++ {
			for _, j := range liveTasks[si] {
				select {
				case jobs <- scanJob{si, j}:
					dispatched++
				case <-cancel:
					// Provably-empty output upstream (or a spill error):
					// skip this and every remaining scan, releasing the
					// per-step completion counts so the stages drain.
					cancelled++
					scanWg[si].Done()
				case <-ctx.Done():
					// Deadline/cancellation: same drain path as the
					// empty short-circuit; the caller discards the
					// partial result and reports ctx.Err().
					cancelled++
					scanWg[si].Done()
				}
			}
		}
	}()

	// Per-step closers: a step's scan side closes when its scans finish
	// (or are skipped). Step 0's "scan side" is stage 1's probe side.
	// Closers also stamp the step's duration and close its trace span;
	// closersWg gives the final stat merge a happens-before edge on
	// those writes.
	var closersWg sync.WaitGroup
	closersWg.Add(n)
	go func() {
		defer closersWg.Done()
		scanWg[0].Wait()
		stepDur[0] = time.Since(pipeT0).Nanoseconds()
		if sp := stepSpan(0); sp != nil {
			sp.SetInt("rows", atomic.LoadInt64(&stepOut[0]))
			sp.End()
		}
		for _, ch := range upCh[1] {
			close(ch)
		}
		if atomic.LoadInt64(&stepOut[0]) == 0 {
			cancelFn()
		}
	}()
	for si := 1; si < n; si++ {
		go func(si int) {
			scanWg[si].Wait()
			for _, ch := range scanCh[si] {
				close(ch)
			}
		}(si)
	}

	// Join stages: one partition worker per (step, partition). Each
	// builds from its scan-side channel while *always* staying ready to
	// buffer early probe-side batches — the select keeps every producer
	// unblocked, so the shared scan pool can never wedge behind a stage.
	// Retention (build table, pending queue) charges the partition's
	// child budget; a failed reservation degrades the partition (probe
	// overflow run first, grace-hash spill when the build side cannot
	// reserve). Build degradation is hybrid, like the batch executor's:
	// the already-reserved build prefix stays resident and frozen, only
	// rows from the failure on go to disk, and the completion replays
	// the probe run against the frozen half before the grace join covers
	// the spilled half — the two match sets are disjoint because every
	// build row lives on exactly one side.
	projParts := make([]*stageProj, parts[n-1]) // last stage's sorted projections
	stageWg := make([]sync.WaitGroup, n)
	for si := 1; si < n; si++ {
		stageWg[si].Add(parts[si])
		for p := 0; p < parts[si]; p++ {
			go func(si, p int) {
				defer stageWg[si].Done()
				stp := &plan.steps[si]
				var partSpan, buildSpan *obs.Span
				if ssp := stepSpan(si); ssp != nil {
					partSpan = ssp.Child("part " + strconv.Itoa(p))
					buildSpan = partSpan.Child("build")
				}
				partBud := spillPool.Child(0)
				build := make(map[uint64][]tuple)
				var pending []*streamedBatch
				var buildCharged, pendCharged int64
				sp := &spillPart{dir: opts.SpillDir, width: width, bud: partBud, io: bud}
				buildSpilled, probeSpilled, hybrid := false, false, false
				var spillErr error
				fail := func(err error) {
					if err != nil && spillErr == nil {
						spillErr = err
						setErr(err)
					}
				}
				writeProbeBatch := func(b *streamedBatch) {
					for i := range b.tups {
						if err := sp.probe.add(b.tups[i], b.hashes[i]); err != nil {
							fail(err)
							return
						}
					}
				}
				degradeBuild := func() {
					if buildSpilled || spillErr != nil {
						return
					}
					if err := sp.ensureBuild(); err != nil {
						fail(err)
						return
					}
					if err := sp.ensureProbe(); err != nil {
						fail(err)
						return
					}
					buildSpilled = true
					stageSpilled[si][p] = 1
					// Hybrid grace: the reserved build prefix stays resident
					// and frozen; only rows from here on go to disk. Pending
					// probe batches go to the probe run before any probing,
					// so the encoded bytes predate any in-place merge.
					if len(build) > 0 {
						hybrid = true
						stageHybrid[si][p] = 1
					}
					for _, b := range pending {
						if spillErr == nil {
							writeProbeBatch(b)
						}
						putBatch(b)
					}
					pending = nil
					partBud.Release(pendCharged)
					pendCharged = 0
				}
				takeBuild := func(b *streamedBatch) {
					defer putBatch(b)
					bud.Release(int64(len(b.tups)) * tc) // in-flight charge
					if spillErr != nil {
						return
					}
					cost := int64(len(b.tups)) * tc
					if !buildSpilled && partBud.Reserve(cost) {
						buildCharged += cost
						for i, r := range b.tups {
							build[b.hashes[i]] = append(build[b.hashes[i]], r)
						}
						return
					}
					degradeBuild()
					if spillErr != nil {
						return
					}
					for i := range b.tups {
						if err := sp.build.add(b.tups[i], b.hashes[i]); err != nil {
							fail(err)
							return
						}
					}
				}
				takeProbeEarly := func(b *streamedBatch) {
					bud.Release(int64(len(b.tups)) * tc)
					if spillErr != nil {
						putBatch(b)
						return
					}
					if buildSpilled {
						writeProbeBatch(b)
						putBatch(b)
						return
					}
					cost := int64(len(b.tups)) * tc
					if partBud.Reserve(cost) {
						pendCharged += cost
						pending = append(pending, b)
						return
					}
					// Pending overflow: the build table stays in memory;
					// probe tuples overflow to a run replayed once the
					// build side is complete. Counts as a spilled
					// partition — it is writing tuples to disk.
					if err := sp.ensureProbe(); err != nil {
						fail(err)
						putBatch(b)
						return
					}
					probeSpilled = true
					stageSpilled[si][p] = 1
					writeProbeBatch(b)
					putBatch(b)
				}
				sc, up := scanCh[si][p], upCh[si][p]
				for sc != nil {
					select {
					case b, ok := <-sc:
						if !ok {
							sc = nil
							continue
						}
						takeBuild(b)
					case b, ok := <-up:
						if !ok {
							up = nil
							continue
						}
						takeProbeEarly(b)
					}
				}
				// Build side complete. In-memory partitions probe the
				// buffered batches, replay any probe-overflow run, then
				// stream from upstream; grace-hash partitions keep
				// spilling the probe side and join from disk at the end.
				if buildSpan != nil {
					buildSpan.SetAttr("spilled", strconv.FormatBool(buildSpilled))
					buildSpan.SetAttr("hybrid", strconv.FormatBool(hybrid))
					buildSpan.End()
				}
				var probeSpan *obs.Span
				if partSpan != nil {
					probeSpan = partSpan.Child("probe")
				}
				arena := newArena(width, bud)
				defer arena.close()
				var rt *partRouter
				if si+1 < n {
					rt = newPartRouter(upCh[si+1], stp.nextKeySlots, bud, tc, batchSize)
				}
				var proj *stageProj
				if rt == nil {
					proj = newStageProj(q, plan, bud, projPool, opts.SpillDir)
				}
				var emitted int64
				emit := func(m tuple, h uint64) {
					if !passFilters(m, filters[si], plan) {
						return
					}
					emitted++
					switch {
					case rt == nil:
						proj.add(m)
					case stp.alignedNext:
						// Same key slots downstream: the merged tuple
						// keeps the probe tuple's key values, so its
						// downstream hash is the incoming hash.
						rt.sendHashed(m, h)
					default:
						rt.send(m)
					}
				}
				probeOne := func(l tuple, h uint64) {
					// A probe tuple is exclusively owned by its batch (or
					// its decode arena) and dead once probed, so its first
					// match merges in place (overlay the new slots on l);
					// only additional matches pay an arena copy.
					var first tuple
					for _, r := range build[h] {
						if !keySlotsEqual(l, r, stp.keySlots) {
							continue
						}
						if first == nil {
							first = r
							continue
						}
						emit(mergeTuple(arena, l, r, stp.newSlots), h)
					}
					if first != nil {
						for _, s := range stp.newSlots {
							l[s] = first[s]
						}
						emit(l, h)
					}
				}
				probe := func(b *streamedBatch) {
					if len(build) == 0 {
						return // drain only; nothing can join
					}
					for i, l := range b.tups {
						probeOne(l, b.hashes[i])
					}
				}
				if spillErr == nil && !buildSpilled {
					for _, b := range pending {
						probe(b)
						putBatch(b)
					}
					pending = nil
					if probeSpilled {
						var spillSpan *obs.Span
						if partSpan != nil {
							spillSpan = partSpan.Child("spill")
						}
						decodeArena := &tupleArena{width: width, blockTuples: spillDecodeBlock}
						fail(sp.probe.replay(width, decodeArena, func(t tuple, h uint64) error {
							if len(build) > 0 {
								probeOne(t, h)
							}
							return nil
						}))
						sp.probe.close()
						sp.probe = nil
						if spillSpan != nil {
							spillSpan.SetInt("runs", int64(sp.runs))
							spillSpan.SetInt("bytes", sp.bytes)
							spillSpan.End()
						}
					}
					if up != nil {
						for b := range up {
							bud.Release(int64(len(b.tups)) * tc)
							if spillErr == nil {
								probe(b)
							}
							putBatch(b)
						}
					}
				} else {
					if up != nil {
						for b := range up {
							bud.Release(int64(len(b.tups)) * tc)
							if spillErr == nil && buildSpilled {
								writeProbeBatch(b)
							}
							putBatch(b)
						}
					}
					if spillErr == nil && buildSpilled {
						// Grace-hash completion: the spilled half of the
						// build side joins from disk, sub-partition by
						// sub-partition within budget.
						var spillSpan *obs.Span
						if partSpan != nil {
							spillSpan = partSpan.Child("spill")
						}
						if hybrid {
							// The frozen prefix's matches first: the probe
							// run is re-readable, so the grace join streams
							// it again afterwards for the disk half.
							decodeArena := &tupleArena{width: width, blockTuples: spillDecodeBlock}
							fail(sp.probe.replay(width, decodeArena, func(t tuple, h uint64) error {
								probeOne(t, h)
								return nil
							}))
						}
						if spillErr == nil {
							fail(sp.join(stp, func(l tuple, h uint64, rs []tuple) {
								first := rs[0]
								for _, r := range rs[1:] {
									emit(mergeTuple(arena, l, r, stp.newSlots), h)
								}
								for _, s := range stp.newSlots {
									l[s] = first[s]
								}
								emit(l, h)
							}))
						}
						if spillSpan != nil {
							spillSpan.SetInt("runs", int64(sp.runs))
							spillSpan.SetInt("bytes", sp.bytes)
							spillSpan.End()
						}
					}
				}
				sp.close()
				stageRuns[si][p] = sp.runs
				stageBytes[si][p] = sp.bytes
				partBud.Release(buildCharged + pendCharged)
				if rt != nil {
					rt.flush()
					stageBatches[si][p] = rt.batches
				} else {
					fail(proj.finish())
					projParts[p] = proj
					if proj.spilled {
						projSpills[p] = 1
						projRunCnt[p] = len(proj.runs)
						projRunBytes[p] = proj.bytes
					}
				}
				if probeSpan != nil {
					probeSpan.SetInt("rows", emitted)
					probeSpan.End()
				}
				partSpan.End()
				atomic.AddInt64(&stepOut[si], emitted)
			}(si, p)
		}
	}
	// Per-stage closers: when stage si finishes, its downstream probe
	// side closes; an empty stage output cancels remaining scan work.
	for si := 1; si < n; si++ {
		go func(si int) {
			defer closersWg.Done()
			stageWg[si].Wait()
			stepDur[si] = time.Since(pipeT0).Nanoseconds()
			if sp := stepSpan(si); sp != nil {
				sp.SetInt("rows", atomic.LoadInt64(&stepOut[si]))
				sp.End()
			}
			if si+1 < n {
				for _, ch := range upCh[si+1] {
					close(ch)
				}
			}
			if atomic.LoadInt64(&stepOut[si]) == 0 {
				cancelFn()
			}
		}(si)
	}

	stageWg[n-1].Wait()
	poolWg.Wait()
	<-dispatcherDone
	closersWg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if pipeErr != nil {
		return pipeErr
	}

	// Deterministic stat merge: task stats in (step, source) order, then
	// the per-partition counters in (step, partition) order.
	for si := range plan.steps {
		for j := range taskStats[si] {
			st.accrue(taskStats[si][j])
		}
	}
	for si := 1; si < n; si++ {
		for p := 0; p < parts[si]; p++ {
			st.StreamedBatches += stageBatches[si][p]
			st.SpilledPartitions += stageSpilled[si][p]
			st.HybridJoins += stageHybrid[si][p]
			st.SpillRuns += stageRuns[si][p]
			st.SpilledBytes += stageBytes[si][p]
		}
	}
	for p := 0; p < parts[n-1]; p++ {
		st.ProjectionSpills += projSpills[p]
		st.SpillRuns += projRunCnt[p]
		st.SpilledBytes += projRunBytes[p]
	}
	st.StepRows = make([]int, n)
	st.StepDurNs = make([]int64, n)
	for si := 0; si < n; si++ {
		st.StepRows[si] = int(stepOut[si])
		st.StepDurNs[si] = stepDur[si]
	}
	st.ParallelScans += dispatched
	st.ScansCancelled += cancelled
	st.PipelinedSteps = n - 1
	for si := 1; si < n; si++ {
		if st.JoinPartitions < parts[si] {
			st.JoinPartitions = parts[si]
		}
	}
	st.StepPartitions = make([]int, n)
	copy(st.StepPartitions[1:], parts[1:])

	// The streaming projection's ordered merge: every partition's rows
	// arrive deduplicated and sorted; the merge drops cross-partition
	// duplicates and yields the deterministic global order shared by all
	// execution paths.
	st.JoinedRows = int(stepOut[n-1])
	res.Rows = mergeProjections(projParts, bud)
	return nil
}
