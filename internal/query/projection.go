package query

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/kb"
	"repro/internal/query/mem"
	"repro/internal/rowcodec"
)

// This file is the streaming projection shared by both planned paths:
// the batch pipeline gives every last-stage partition its own stageProj
// and merges their sorted row sets; the per-step path projects its final
// frontier through a single one. Under Options{MemoryLimit} the
// pipeline's dedup sets spill (projspill.go).

// stageProj is one last-stage partition's streaming projection: probe
// output dedups straight onto the SELECT slots as it is emitted, so the
// pipeline's final frontier is never materialised — only the
// partition's distinct projected rows are retained. Rows are ordinals
// into one cell arena per partition (blocks of selN-cell rows, never
// moved once written, so the answer rows are subslices of it); dedup is
// a flat open-addressing table of ordinals keyed by hashCell over the
// SELECT cells with SameCell as the equality — the build store's scheme
// — so adding a row builds no key and allocates nothing but arena
// blocks. At stage end the ordinals are sorted with rowcodec.CompareRows,
// whose order is byte-identical to the row keys the Sequential oracle
// sorts on, and the executor merges the sorted partitions. Under
// Options{MemoryLimit} the dedup set is itself spillable (projspill.go):
// it reserves from the shared pool and rotates to sorted temp-file runs
// when refused — the only place row keys are ever built — so even a
// distinct answer set larger than the cap stays within it.
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

	pooled bool // set came from projSetPool and goes back to it
}

// projSet is a projection's transient dedup and sort state: tab is the
// open-addressing table (1+ordinal, 0 = empty), hashes[r] is row r's
// hash, ord the sorted ordinals finish leaves for the merge. None of it
// outlives the execution, so the pipeline pools it.
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

// newStageProj builds one pipeline partition's projection on a pooled
// dedup set. pool, when non-nil, is the spillable reservation pool the
// set draws on (the limit-governed pipeline passes its spill pool;
// unbounded pipelines pass nil and the set charges the root as
// un-spillable state).
func newStageProj(q Query, plan *execPlan, bud, pool *mem.Budget, dir string) *stageProj {
	set, ok := projSetPool.Get().(*projSet)
	if !ok {
		set = &projSet{tab: make([]int32, buildTabMinSize)}
	}
	pp := newProj(q, plan, bud, set)
	pp.pooled = true
	if pool != nil {
		pp.spill = pool.Child(0)
		pp.dir = dir
	}
	return pp
}

// newStepProj is the per-step path's projection: a single partition
// with no spill pool (every distinct row is a root MustReserve) and a
// dedup set of its own. A garbage collection empties projSetPool and a
// refill regrows the table, so a pooled set would make the per-step
// path's allocation count depend on GC timing; its own set keeps the
// count exact (TestTracingOffAllocs compares it exactly).
func newStepProj(q Query, plan *execPlan, bud *mem.Budget) *stageProj {
	return newProj(q, plan, bud, &projSet{tab: make([]int32, buildTabMinSize)})
}

func newProj(q Query, plan *execPlan, bud *mem.Budget, set *projSet) *stageProj {
	sel := make([]int, len(q.Select))
	for i, v := range q.Select {
		sel[i] = plan.slotOf[v]
	}
	//lint:onion-ignore one row of scratch cells per partition, overwritten for every added row and never retained
	return &stageProj{sel: sel, scratch: make([]kb.Value, len(sel)), set: set,
		rowCost: projRowCost(len(sel)), bud: bud}
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

// add projects a row-major tuple (the per-step path's final frontier).
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

// release hands a pooled projection's dedup state back to the pool; the
// arena (the answer's cells) stays with the returned rows.
func (pp *stageProj) release() {
	if pp.set == nil {
		return
	}
	if pp.pooled {
		pp.resetSet()
		pp.set.ord = pp.set.ord[:0]
		projSetPool.Put(pp.set)
	}
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
