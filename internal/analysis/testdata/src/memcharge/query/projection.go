// This file is named projection.go so it falls under the contract's
// projection half: the streaming projection's cell arena holds the
// answer rows, so allocating arena blocks without a charge is the same
// PR 5 bug class as an uncharged tuple slice.
package query

import "fixtures/memcharge/kb"

// projArena mirrors the projection's cell arena: blocks of selN-cell
// rows.
type projArena struct {
	blocks [][]kb.Value
}

// growUncharged appends an arena block with no budget call anywhere in
// the function.
func (a *projArena) growUncharged(cells int) {
	a.blocks = append(a.blocks, make([]kb.Value, cells)) // want "growUncharged allocates tuple storage .* but never charges the query memory budget"
}

// growEnsured charges the block's rows through the projection's ensure
// helper before allocating it: conforming.
func growEnsured(pp *stageProj, a *projArena, cells int) {
	pp.ensure(int64(cells) * 16)
	a.blocks = append(a.blocks, make([]kb.Value, cells))
}
