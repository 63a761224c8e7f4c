package query

import (
	"math"
	"sync"

	"repro/internal/kb"
	"repro/internal/query/mem"
)

// This file is the columnar batch layer under the batch executor
// (batchpipe.go): per-slot value vectors in fixed-capacity batches, a
// selection bitmap instead of survivor copies, a []uint64 hash vector
// filled one key column at a time, and budget accounting charged once
// per batch (column capacity) instead of once per tuple. The tuple type
// stays the row-at-a-time currency (spill runs and the per-step
// executor); a colBatch is the same rows turned sideways.

// batchRows is the row capacity of one column batch — scans fill batches
// in runs of this size and every vectorized pass (hash, filter, scatter)
// works over at most this many rows. 512 is the measured E19 sweet spot:
// the vectorization win saturates well before that (the per-row loop
// bodies are branch-light), fuller batches amortise the channel hop, and
// a 1024-row capacity measured slower on the E13 chain world, where
// partitions see a few hundred rows and capacity-sized columns just
// thrash the allocator. budgetedBatchRows is the smaller capacity used
// under Options{MemoryLimit}, keeping each batch's fixed charge
// (width·batchRows·valueBytes) well under a small cap.
const (
	batchRows         = 512
	budgetedBatchRows = 32
)

// colBatch is one batch of execution rows in columnar layout: cols[s][i]
// is row i's value for plan slot s (kind-tagged — kb.Value carries its
// kind, so a column is a kind-tagged value vector). hashes[i] is row i's
// join-key hash on whatever key the producing side routed on. sel, when
// non-nil, is a selection bitmap over the rows: vectorized filters clear
// bits instead of copying survivors, and downstream passes skip dead
// rows. A nil sel means every row is live. selBuf is the bitmap's own
// buffer, recycled with the batch, so a filtered flush never allocates.
type colBatch struct {
	n      int
	cols   [][]kb.Value
	hashes []uint64
	sel    []uint64
	selBuf []uint64
	cost   int64 // budget charge held while checked out of the pool
}

// heldCost is the accounted footprint of a batch: the full capacity of
// every column in its backing array — including spare columns kept past
// the current width; the batch holds them for its whole pooled life —
// plus the hash vector and the selection bitmap buffer.
func (b *colBatch) heldCost() int64 {
	n := int64(cap(b.hashes))*8 + int64(cap(b.selBuf))*8
	for _, c := range b.cols[:cap(b.cols)] {
		n += int64(cap(c)) * valueBytes
	}
	return n
}

// colBatchPool recycles batch buffers across executions, like the row
// pipeline's batchPool: steady-state streaming allocates no new columns
// at all. It is one pool for every shape: get re-shapes whatever batch
// it is handed (reshape), so a query mix of different widths — the 3-
// and 4-conjunct joins of one workload — keeps hitting it instead of
// dropping every batch of the other width.
var colBatchPool sync.Pool

// batchAlloc hands out colBatches for one execution. The budget is
// charged at checkout and released when the batch is returned — once
// per batch, for the capacity the batch actually holds — so a batch's
// bytes are accounted for exactly as long as it is live (staging, in
// flight on a channel, or being drained by a consumer).
type batchAlloc struct {
	width int
	rows  int
	bud   *mem.Budget
}

func newBatchAlloc(width int, bud *mem.Budget) *batchAlloc {
	rows := batchRows
	if bud.Limit() > 0 {
		rows = budgetedBatchRows
	}
	return &batchAlloc{width: width, rows: rows, bud: bud}
}

// get returns an empty batch with every column at capacity, charging its
// held capacity to the execution budget.
func (a *batchAlloc) get() *colBatch {
	b, ok := colBatchPool.Get().(*colBatch)
	if !ok {
		b = &colBatch{}
	}
	a.reshape(b)
	b.cost = b.heldCost()
	a.bud.MustReserve(b.cost)
	return b
}

// reshape fits a recycled (or empty) batch to this execution's shape
// instead of dropping it. A narrower width reslices the column list and
// keeps the extra columns' arrays in its backing for the next wider
// shape; a wider one re-extends over kept columns and appends the rest.
// Columns, hash vector and bitmap are reallocated only when their row
// capacity differs — the unbounded and the budgeted row capacity never
// share arrays. Under a memory limit spare columns are dropped rather
// than kept, so the fixed per-batch charge is exactly the execution's
// own shape and the spill decisions it feeds do not depend on what ran
// before.
func (a *batchAlloc) reshape(b *colBatch) {
	if cap(b.cols) < a.width {
		//lint:onion-ignore column-list header only (one slice header per slot); the columns it holds are charged by get via heldCost
		cols := make([][]kb.Value, a.width)
		copy(cols, b.cols[:cap(b.cols)])
		b.cols = cols
	}
	b.cols = b.cols[:a.width]
	if a.bud.Limit() > 0 {
		clear(b.cols[a.width:cap(b.cols)])
	}
	for s, c := range b.cols {
		if cap(c) != a.rows {
			//lint:onion-ignore pool-recycled fixed-capacity column shared across queries; charged while checked out by get (MustReserve of heldCost) and released at put
			b.cols[s] = make([]kb.Value, a.rows)
		} else {
			b.cols[s] = c[:a.rows]
		}
	}
	if cap(b.hashes) != a.rows {
		b.hashes = make([]uint64, a.rows)
	}
	b.hashes = b.hashes[:a.rows]
	if words := (a.rows + 63) / 64; cap(b.selBuf) != words {
		b.selBuf = make([]uint64, words)
	}
}

// put releases the batch's charge and recycles its buffers. The batch's
// values are dead after put — consumers copy what they retain (build
// stores, projections) before returning the batch.
func (a *batchAlloc) put(b *colBatch) {
	a.bud.Release(b.cost)
	b.n = 0
	b.sel = nil
	b.cost = 0
	colBatchPool.Put(b)
}

// full reports that the batch has no room for another row.
func (b *colBatch) full() bool { return b.n >= len(b.hashes) }

// live reports whether row i survived the selection mask.
func (b *colBatch) live(i int) bool {
	return b.sel == nil || b.sel[i>>6]&(1<<uint(i&63)) != 0
}

// ensureSel materialises the selection bitmap in the batch's own buffer
// with every current row live; filters then clear bits.
func (b *colBatch) ensureSel() {
	if b.sel != nil {
		return
	}
	b.sel = b.selBuf
	for w := range b.sel {
		b.sel[w] = ^uint64(0)
	}
}

// clearRow drops row i from the selection.
func (b *colBatch) clearRow(i int) {
	b.sel[i>>6] &^= 1 << uint(i&63)
}

// selected counts the rows that survived the selection mask.
func (b *colBatch) selected() int {
	if b.sel == nil {
		return b.n
	}
	cnt := 0
	for i := 0; i < b.n; i++ {
		if b.live(i) {
			cnt++
		}
	}
	return cnt
}

// batchHashSeed starts every row's key-hash accumulation; hashCell folds
// one key column's cell in. The batch path hashes values directly —
// kind, canonical float bits, string bytes — instead of encoding the key
// to rowkey bytes first (the per-step path's appendSlotKey+hashKey), so
// a batch hash pass touches each column once with no byte
// materialisation. The two executors never mix hashes within one
// execution, so the functions need not agree — but hashCell must respect the engine's join
// equality (sameCell): equal cells hash equal, every NaN hashes in one
// class, and +0/-0 may differ (they never join).
const batchHashSeed = 0x9E3779B97F4A7C15

// canonNaNBits is the one bit image all NaNs hash through, mirroring the
// rowkey encoding's NaN canonicalisation.
const canonNaNBits = 0x7FF8000000000000

// mix64 is a 64-bit finalizer (splitmix64's): full avalanche, so routing
// by low bits and spill sub-partitioning by high bits stay uncorrelated.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// hashCell folds one cell into a row's key hash.
func hashCell(h uint64, v *kb.Value) uint64 {
	if v.Kind == kb.KindNumber {
		bits := math.Float64bits(v.Num)
		if v.Num != v.Num {
			bits = canonNaNBits
		}
		return mix64(h ^ mix64(bits^(uint64(v.Kind)+1)*0x9E3779B97F4A7C15))
	}
	hs := uint64(14695981039346656037) ^ (uint64(v.Kind)+1)*1099511628211
	for i := 0; i < len(v.Str); i++ {
		hs ^= uint64(v.Str[i])
		hs *= 1099511628211
	}
	return mix64(h ^ hs)
}

// hashKeys fills the batch's hash vector on the given key slots: one
// pass per key column, combined in slot order. Dead rows are hashed too
// (branch-free inner loop); their hashes are simply never read.
func (b *colBatch) hashKeys(slots []int) {
	h := b.hashes[:b.n]
	for i := range h {
		h[i] = batchHashSeed
	}
	for _, s := range slots {
		col := b.cols[s][:b.n]
		for i := range col {
			h[i] = hashCell(h[i], &col[i])
		}
	}
}

// applyFilterVec evaluates one filter over its slot's column, clearing
// selection bits for failing rows — predicates set bits in the mask
// instead of copying survivors. Numeric comparison operators run a
// branch-light specialised loop; the general case defers to
// Filter.Accepts cell by cell (bitwise-identical semantics either way).
func (b *colBatch) applyFilterVec(slot int, f Filter) {
	b.ensureSel()
	col := b.cols[slot][:b.n]
	if f.Value.IsNumber() {
		fv := f.Value.Num
		switch f.Op {
		case OpLT:
			for i := range col {
				if !(col[i].Kind == kb.KindNumber && col[i].Num < fv) {
					b.clearRow(i)
				}
			}
			return
		case OpLE:
			for i := range col {
				if !(col[i].Kind == kb.KindNumber && col[i].Num <= fv) {
					b.clearRow(i)
				}
			}
			return
		case OpGT:
			for i := range col {
				if !(col[i].Kind == kb.KindNumber && col[i].Num > fv) {
					b.clearRow(i)
				}
			}
			return
		case OpGE:
			for i := range col {
				if !(col[i].Kind == kb.KindNumber && col[i].Num >= fv) {
					b.clearRow(i)
				}
			}
			return
		}
	}
	for i := range col {
		if !f.Accepts(col[i]) {
			b.clearRow(i)
		}
	}
}

// applyFiltersVec runs one step's filter set over the batch, column by
// column.
func (b *colBatch) applyFiltersVec(fs []Filter, plan *execPlan) {
	for _, f := range fs {
		b.applyFilterVec(plan.slotOf[f.Var], f)
	}
}

// copyRow copies row i of src into the next row of b and records its
// hash. Only the slots listed are copied — the slots bound at this
// point in the chain; columns outside the list carry recycled garbage
// that no downstream pass ever reads (which slots are bound is a
// plan-level property, exactly as for tuples). The caller checks
// capacity.
func (b *colBatch) copyRow(src *colBatch, i int, h uint64, slots []int) {
	j := b.n
	for _, s := range slots {
		b.cols[s][j] = src.cols[s][i]
	}
	b.hashes[j] = h
	b.n++
}

// rowTuple copies row i's listed slots into the scratch tuple — the
// bridge to the tuple spill machinery (spill.go): spill runs encode
// tuples, and the grace-join completion replays them. A scratch tuple is dedicated to one slot list, so the
// slots outside it stay zero (the tuple executor's unbound-slot
// convention) and the encoded wire bytes are deterministic.
func (b *colBatch) rowTuple(i int, scratch tuple, slots []int) tuple {
	for _, s := range slots {
		scratch[s] = b.cols[s][i]
	}
	return scratch
}

// buildStore is one stage partition's columnar build side: rows appended
// batch-at-a-time (column copies, no per-row allocation), indexed by key
// hash through an intrusive chain: tab is a flat open-addressing table
// whose entries point at each hash's latest row (1+ordinal; 0 = empty
// slot) and next links back to the previous one, so indexing a row never
// allocates — and probing is a masked array walk instead of a Go-map
// lookup per probe row, the hot operation of the vectorized join. The
// key hashes are already finalizer-mixed (mix64), so `h & mask` placement
// needs no re-hash. Only the slots the step actually binds or keys on are
// stored — the probe side contributes every other slot to the merged
// output row.
type buildStore struct {
	slots  []int // stored slots (keySlots ∪ newSlots)
	cols   [][]kb.Value
	hashes []uint64
	tab    []int32 // open-addressing index: 1+row ordinal of a chain head, 0 empty
	used   int     // occupied tab slots (distinct hashes)
	next   []int32 // next[i]: previous row with row i's hash, -1 at chain end
}

// buildTabMinSize is the smallest index table (power of two); the table
// doubles when occupancy passes 3/4.
const buildTabMinSize = 1024

// buildStorePool recycles build stores across stage partitions and
// executions, like colBatchPool and with the same one-pool re-shaping: a
// recycled store keeps its column, hash-vector, chain and index capacity
// whatever the width of the plan that used it last, so a steady query
// mix builds its hash tables into already-grown arrays. In-execution
// retention is still the partition budget reservation that admitted each
// batch (a full tuple's cost per row, which bounds the stored slots);
// idle pooled capacity is unaccounted, the same convention as the batch
// pool.
var buildStorePool sync.Pool

func newBuildStore(stp *planStep, width int) *buildStore {
	bs, ok := buildStorePool.Get().(*buildStore)
	if !ok {
		//lint:onion-ignore column backing grows by append under the partition budget reservation that admitted each batch (takeBuild's Reserve)
		bs = &buildStore{tab: make([]int32, buildTabMinSize)}
	}
	// Re-shape: extra columns stay in the backing array (emptied by
	// release, capacity kept) for the next wider plan.
	if cap(bs.cols) < width {
		//lint:onion-ignore column-list header only; column contents are charged per admitted batch (takeBuild's Reserve)
		cols := make([][]kb.Value, width)
		copy(cols, bs.cols[:cap(bs.cols)])
		bs.cols = cols
	}
	bs.cols = bs.cols[:width]
	bs.slots = append(append(bs.slots[:0], stp.keySlots...), stp.newSlots...)
	return bs
}

// release empties the store (keeping capacity) and returns it to the
// pool. The store's values are dead after release.
func (bs *buildStore) release() {
	for s := range bs.cols {
		if bs.cols[s] != nil {
			bs.cols[s] = bs.cols[s][:0]
		}
	}
	bs.hashes = bs.hashes[:0]
	bs.next = bs.next[:0]
	clear(bs.tab)
	bs.used = 0
	buildStorePool.Put(bs)
}

// link chains row j (whose hash is already appended at bs.hashes[j])
// into the index: the table entry for its hash moves to j and next[j]
// points at the previous head (-1 when j starts the chain). Grows the
// table at 3/4 occupancy by re-linking every row in insertion order,
// which rebuilds identical chains.
func (bs *buildStore) link(j int32) {
	if (bs.used+1)*4 > len(bs.tab)*3 {
		bs.grow()
	}
	h := bs.hashes[j]
	mask := uint64(len(bs.tab) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := bs.tab[i]
		if e == 0 {
			bs.tab[i] = j + 1
			bs.next = append(bs.next, -1)
			bs.used++
			return
		}
		if bs.hashes[e-1] == h {
			bs.next = append(bs.next, e-1)
			bs.tab[i] = j + 1
			return
		}
	}
}

func (bs *buildStore) grow() {
	size := len(bs.tab) * 2
	if size < buildTabMinSize {
		size = buildTabMinSize
	}
	bs.tab = make([]int32, size)
	bs.used = 0
	mask := uint64(size - 1)
	for j := range bs.next {
		h := bs.hashes[j]
		for i := h & mask; ; i = (i + 1) & mask {
			e := bs.tab[i]
			if e == 0 {
				bs.tab[i] = int32(j) + 1
				bs.used++
				break
			}
			if bs.hashes[e-1] == h {
				bs.tab[i] = int32(j) + 1
				break
			}
		}
	}
}

// appendBatch copies the batch's rows into the store column by column
// and chains them into the hash index. Retention is the caller's
// reservation (the partition budget Reserve that admitted the batch).
func (bs *buildStore) appendBatch(b *colBatch) {
	base := int32(len(bs.hashes))
	for _, s := range bs.slots {
		bs.cols[s] = append(bs.cols[s], b.cols[s][:b.n]...)
	}
	bs.hashes = append(bs.hashes, b.hashes[:b.n]...)
	for i := 0; i < b.n; i++ {
		bs.link(base + int32(i))
	}
}

func (bs *buildStore) rows() int { return len(bs.hashes) }

// head returns the most recent row with the given hash, or -1; walk the
// chain with bs.next[j].
func (bs *buildStore) head(h uint64) int32 {
	mask := uint64(len(bs.tab) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := bs.tab[i]
		if e == 0 {
			return -1
		}
		if bs.hashes[e-1] == h {
			return e - 1
		}
	}
}

// keysEqualAt verifies a hash match between probe row (pb, i) and build
// row j under the engine's join equality (sameCell per key slot).
func (bs *buildStore) keysEqualAt(pb *colBatch, i int, j int32, keySlots []int) bool {
	for _, s := range keySlots {
		if !sameCell(pb.cols[s][i], bs.cols[s][j]) {
			return false
		}
	}
	return true
}

// keysEqualTuple is keysEqualAt for a row-major probe tuple (the
// probe-overflow replay path).
func (bs *buildStore) keysEqualTuple(t tuple, j int32, keySlots []int) bool {
	for _, s := range keySlots {
		if !sameCell(t[s], bs.cols[s][j]) {
			return false
		}
	}
	return true
}
