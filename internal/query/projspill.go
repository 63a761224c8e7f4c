package query

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/kb"
	"repro/internal/query/mem"
	"repro/internal/rowcodec"
)

// This file makes the last stage's streaming projection (stageProj,
// projection.go) spillable under Options{MemoryLimit}. The projection's
// dedup set is the one retention the memory-governed pipeline could not
// previously trade for disk: a query whose *distinct answer set* alone
// exceeded the cap blew past it via MustReserve. Now the set reserves
// from the shared spillable pool in chunk-sized grants; when a grant is
// refused the buffered rows rotate to a sorted temp-file run — the only
// place a projected row's key is ever built: the row key doubles as the
// record (it IS the row's full encoding, decodable cell by cell) — and
// finish() merge-dedups the sorted runs with the sorted in-memory
// remainder back into the partition's deterministic row order. Rows
// that reach the caller are charged to the root as before (they are the
// answer); only the transient dedup state spills.
//
// A duplicate row can land in two runs (the dedup set forgets spilled
// rows), but equal rows are cell-identical and the run order
// (bytes.Compare over row keys) is exactly rowcodec.CompareRows, so the
// merge's first-wins dedup yields exactly the rows an unbounded run
// yields, byte-identical.

const (
	// projChunkBytes is the granularity of the projection's spillable
	// reservations: row charges consume grant headroom, so the pool sees
	// one Reserve per chunk instead of one per distinct row.
	projChunkBytes = 16 << 10
	// projRotateMinBytes is the smallest buffered set worth a sorted
	// run. Below it a refused grant holds the rows anyway (MustReserve)
	// — a bounded overshoot, at most this many bytes per last-stage
	// partition (cf. minChunkTuples) — so a crowded pool cannot explode
	// the projection into per-row runs.
	projRotateMinBytes = 64 << 10
)

// projRun is one sorted temp-file run of projected-row keys. Records
// are uvarint-length-prefixed key bytes, written in ascending key order;
// like spillRun the file is unlinked at creation and the write buffer is
// charged to the root as fixed working state.
type projRun struct {
	f      *os.File
	w      *bufio.Writer
	bud    *mem.Budget
	keys   int
	closed bool
}

func newProjRun(dir string, bud *mem.Budget) (*projRun, error) {
	f, err := os.CreateTemp(dir, "onion-proj-*")
	if err != nil {
		return nil, fmt.Errorf("query: projection spill: %w", err)
	}
	os.Remove(f.Name())
	bud.MustReserve(spillBufBytes)
	return &projRun{f: f, w: bufio.NewWriterSize(f, spillBufBytes), bud: bud}, nil
}

// add appends one key record, returning the bytes written
// (Stats.SpilledBytes).
func (r *projRun) add(key []byte) (int64, error) {
	var lenb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenb[:], uint64(len(key)))
	if _, err := r.w.Write(lenb[:n]); err != nil {
		return 0, fmt.Errorf("query: projection spill write: %w", err)
	}
	if _, err := r.w.Write(key); err != nil {
		return 0, fmt.Errorf("query: projection spill write: %w", err)
	}
	r.keys++
	return int64(n + len(key)), nil
}

// reader flushes the run and opens a sequential reader at its start.
func (r *projRun) reader() (*projReader, error) {
	if err := r.w.Flush(); err != nil {
		return nil, fmt.Errorf("query: projection spill flush: %w", err)
	}
	if _, err := r.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("query: projection spill seek: %w", err)
	}
	return &projReader{br: bufio.NewReaderSize(r.f, spillBufBytes), remaining: r.keys}, nil
}

// close releases the run's fd and its accounted write buffer
// (idempotent, like spillRun.close).
func (r *projRun) close() {
	if r == nil || r.closed {
		return
	}
	r.closed = true
	r.f.Close()
	r.bud.Release(spillBufBytes)
}

// projReader streams a run's keys back in (sorted) write order. The
// returned bytes are valid until the next call.
type projReader struct {
	br        *bufio.Reader
	remaining int
	buf       []byte
}

func (pr *projReader) next() ([]byte, bool, error) {
	if pr.remaining == 0 {
		return nil, false, nil
	}
	pr.remaining--
	n, err := binary.ReadUvarint(pr.br)
	if err != nil {
		return nil, false, fmt.Errorf("query: projection spill read: %w", err)
	}
	if uint64(cap(pr.buf)) < n {
		pr.buf = make([]byte, n)
	}
	key := pr.buf[:n]
	if _, err := io.ReadFull(pr.br, key); err != nil {
		return nil, false, fmt.Errorf("query: projection spill read: %w", err)
	}
	return key, true, nil
}

// ensure charges one distinct row's retention. Without a spill pool
// (unbounded executions) this is the historical root MustReserve; with
// one, charges consume chunk-granted headroom, a refused grant rotates
// the buffered set to a sorted run, and a pool exhausted by sibling
// partitions degrades to the bounded projRotateMinBytes overshoot.
func (pp *stageProj) ensure(n int64) {
	if pp.spill == nil {
		pp.bud.MustReserve(n)
		return
	}
	if pp.err != nil {
		return
	}
	if pp.headroom >= n {
		pp.headroom -= n
		return
	}
	need := int64(projChunkBytes)
	if n > need {
		need = n
	}
	if pp.spill.Reserve(need) {
		pp.charged += need
		pp.headroom += need - n
		return
	}
	if pp.charged+n >= projRotateMinBytes {
		pp.rotate()
		if pp.err != nil {
			return
		}
		if pp.spill.Reserve(need) {
			pp.charged += need
			pp.headroom += need - n
			return
		}
	}
	// Pool exhausted with too little buffered to trade for disk: hold
	// the row anyway — bounded overshoot, the projection always makes
	// progress.
	pp.spill.MustReserve(n)
	pp.charged += n
}

// rotate writes the buffered dedup set to a sorted run and resets it,
// releasing its pool reservation. The dedup set forgets the spilled
// rows; the merge at finish() re-drops any re-projected duplicates. The
// arena keeps its blocks for the next set — its cells now live on disk.
func (pp *stageProj) rotate() {
	ord := pp.sortOrdinals()
	r, err := newProjRun(pp.dir, pp.bud)
	if err != nil {
		pp.err = err
		return
	}
	pp.runs = append(pp.runs, r)
	pp.spilled = true
	var key []byte
	for _, o := range ord {
		key = appendRowKey(key[:0], pp.row(o))
		n, err := r.add(key)
		if err != nil {
			pp.err = err
			break
		}
		pp.bytes += n
	}
	pp.resetSet()
	pp.spill.Release(pp.charged)
	pp.charged, pp.headroom = 0, 0
}

// finish sorts the partition's deduplicated rows into ascending row
// order (set.ord), merging any spilled runs back; mergeProjections reads
// them from there. Their retention is charged to the root either way —
// they are the answer; only the dedup state was spillable. On error the
// dedup state goes straight back to the pool.
func (pp *stageProj) finish() error {
	if pp.err != nil {
		pp.cleanup()
		pp.release()
		return pp.err
	}
	pp.sortOrdinals()
	if pp.spill == nil {
		return nil
	}
	// Hand the retention from the spillable pool back before charging
	// the root for the final rows, so the two never stack in the peak.
	pp.spill.Release(pp.charged)
	pp.charged, pp.headroom = 0, 0
	if len(pp.runs) == 0 {
		pp.bud.MustReserve(int64(pp.n) * pp.rowCost)
		return nil
	}
	err := pp.mergeRuns()
	pp.cleanup()
	if err != nil {
		pp.release()
	}
	return err
}

// cleanup closes any runs and drops remaining pool reservations (the
// error path's sweep; the success path released them in finish).
func (pp *stageProj) cleanup() {
	for _, r := range pp.runs {
		r.close()
	}
	pp.spill.Release(pp.charged)
	pp.charged, pp.headroom = 0, 0
}

// decodeProjKey decodes a projected row from its key into cells — the
// key is appendRowKey over the SELECT cells, so it decodes cell by cell.
func decodeProjKey(key []byte, cells []kb.Value) error {
	body := key
	for k := range cells {
		v, consumed, err := decodeValueKey(body)
		if err != nil {
			return fmt.Errorf("query: projection spill cell %d: %w", k, err)
		}
		cells[k] = v
		body = body[consumed:]
	}
	if len(body) != 0 {
		return fmt.Errorf("query: projection spill record has %d trailing bytes", len(body))
	}
	return nil
}

// mergeRuns merge-dedups the sorted runs with the sorted in-memory
// remainder (set.ord): a linear head scan — run counts are small, one
// per rotation — emitting each distinct row once. Spilled rows decode
// into the arena as new ordinals, every surviving row is charged to the
// root, and set.ord becomes the merged order.
func (pp *stageProj) mergeRuns() error {
	selN := len(pp.sel)
	readers := make([]*projReader, len(pp.runs))
	live := make([]bool, len(pp.runs))
	// Decoded run heads, selN cells per run: transient, released on return.
	headBytes := int64(len(pp.runs)*selN) * valueBytes
	pp.bud.MustReserve(headBytes)
	defer pp.bud.Release(headBytes)
	heads := make([]kb.Value, len(pp.runs)*selN)
	head := func(i int) []kb.Value { return heads[i*selN : (i+1)*selN] }
	advance := func(i int) error {
		key, ok, err := readers[i].next()
		if err != nil || !ok {
			live[i] = false
			return err
		}
		live[i] = true
		return decodeProjKey(key, head(i))
	}
	for i, r := range pp.runs {
		pr, err := r.reader()
		if err != nil {
			return err
		}
		readers[i] = pr
		if err := advance(i); err != nil {
			return err
		}
	}
	rem := pp.set.ord
	merged := make([]int32, 0, len(rem))
	var last []kb.Value
	ri := 0 // next in-memory remainder row
	for {
		best := -1 // run with the smallest head
		for i := range readers {
			if live[i] && (best == -1 || rowcodec.CompareRows(head(i), head(best)) < 0) {
				best = i
			}
		}
		if best == -1 && ri >= len(rem) {
			pp.set.ord = merged
			return nil
		}
		if best == -1 || (ri < len(rem) && rowcodec.CompareRows(head(best), pp.row(rem[ri])) >= 0) {
			o := rem[ri]
			ri++
			if last != nil && sameRow(pp.row(o), last) {
				continue
			}
			last = pp.row(o)
			pp.bud.MustReserve(pp.rowCost)
			merged = append(merged, o)
			continue
		}
		if last == nil || !sameRow(head(best), last) {
			pp.bud.MustReserve(pp.rowCost)
			o := pp.appendRow(head(best))
			last = pp.row(o)
			merged = append(merged, o)
		}
		if err := advance(best); err != nil {
			return err
		}
	}
}
