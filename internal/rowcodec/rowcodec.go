// Package rowcodec is the one kind-strict value encoding the system keys,
// spills and persists rows with.
//
// It started life inside internal/query as the row/join-key encoding
// (PR 3) and the grace-hash spill wire format (PR 5); the persistence
// layer (internal/persist) made it load-bearing on disk, so it lives here
// as a shared codec: query spilling, fact logs, snapshots and the serving
// layer's disk cache tier all encode values through exactly this code.
// One codec means one equality: a fact that round-trips through a spill
// run, a crash-recovered log or a cold cache entry can never collapse
// with — or diverge from — a distinct in-memory value.
//
// The seed's ancestor encodings keyed on Format() strings joined with raw
// '\x00' — kind-blind (Term("3000") and Number(3000) format identically)
// and framing-ambiguous (a payload containing '\x00' shifts bytes across
// field boundaries). AppendValue replaces all of that with a single
// collision-free encoding.
package rowcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/kb"
)

// AppendValue appends a collision-free, order-preserving encoding of v
// to buf:
//
//   - a kind tag byte first, so values of different kinds never compare
//     equal (Term("3000") vs Number(3000) vs String("3000")), and rows
//     sort kind-major within a column;
//   - numbers as the 8-byte big-endian IEEE image with the sign-flip
//     transform, so byte order equals numeric order (-0 sorts before +0,
//     and they stay distinct — Format renders them "-0" and "0"). NaN
//     payloads are canonicalised so every NaN encodes alike: the
//     reference semantics key on Format(), where all NaNs render "NaN"
//     and therefore compare equal;
//   - terms and strings as the payload with '\x00' escaped as
//     "\x00\xff" followed by a '\x00' terminator. The escape keeps
//     NUL-bearing payloads from shifting bytes across field boundaries,
//     and the terminator (never followed by 0xff; kind tags are 0..2)
//     keeps concatenated fields prefix-free while preserving plain
//     lexicographic order for NUL-free payloads.
//
// The encoding is injective up to NaN payloads, so it is simultaneously
// the join-key, dedup-key, sort-key and wire encoding: two values encode
// equally iff they are equal under the engine's value semantics.
func AppendValue(buf []byte, v kb.Value) []byte {
	buf = append(buf, byte(v.Kind))
	if v.Kind == kb.KindNumber {
		return binary.BigEndian.AppendUint64(buf, orderBits(v.Num))
	}
	s := v.Str
	for {
		i := strings.IndexByte(s, 0)
		if i < 0 {
			break
		}
		buf = append(buf, s[:i]...)
		buf = append(buf, 0x00, 0xff)
		s = s[i+1:]
	}
	buf = append(buf, s...)
	return append(buf, 0x00)
}

// AppendRow appends a row's dedup/sort key: AppendValue over every cell.
// The query executors' projection, dedup and final row sort all key on
// it, so the deterministic output order is shared by every execution
// path and is safe under adversarial values.
func AppendRow(buf []byte, vals []kb.Value) []byte {
	for _, v := range vals {
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeValue is the inverse of AppendValue: it decodes one value from
// the front of b and returns it with the number of bytes consumed. The
// kind tag, the escape/terminator framing and the order-preserving float
// image all invert exactly, so encoded values round-trip kind-strictly
// through spill runs, fact logs and snapshots. The only non-identity is
// the NaN class — every NaN encodes (and therefore decodes) as the
// canonical quiet NaN, which is the engine's value semantics anyway
// (SameCell puts every NaN in one class), so a decoded row is
// EqualRows-identical to its in-memory twin.
func DecodeValue(b []byte) (kb.Value, int, error) {
	if len(b) == 0 {
		return kb.Value{}, 0, errors.New("rowcodec: empty value encoding")
	}
	kind := kb.ValueKind(b[0])
	if kind == kb.KindNumber {
		if len(b) < 9 {
			return kb.Value{}, 0, errors.New("rowcodec: truncated number encoding")
		}
		bits := binary.BigEndian.Uint64(b[1:9])
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return kb.Number(math.Float64frombits(bits)), 9, nil
	}
	if kind != kb.KindTerm && kind != kb.KindString {
		return kb.Value{}, 0, fmt.Errorf("rowcodec: unknown kind tag %d", b[0])
	}
	var sb strings.Builder
	i := 1
	for {
		j := i
		for j < len(b) && b[j] != 0 {
			j++
		}
		if j >= len(b) {
			return kb.Value{}, 0, errors.New("rowcodec: unterminated payload")
		}
		sb.Write(b[i:j])
		if j+1 < len(b) && b[j+1] == 0xff {
			// Escaped NUL inside the payload.
			sb.WriteByte(0)
			i = j + 2
			continue
		}
		return kb.Value{Kind: kind, Str: sb.String()}, j + 1, nil
	}
}

// CompareCells orders two cells exactly as bytes.Compare orders their
// AppendValue encodings, without encoding either: kind tag first, then
// numbers by the sign-flipped IEEE image (every NaN as the canonical
// quiet NaN) and terms and strings by plain byte order. The escape
// framing needs no special case: a payload NUL encodes as 0x00 0xff and
// the terminator as 0x00, so a payload that is a proper prefix of
// another encodes below it, and at the first differing payload byte a
// NUL (0x00 …) sorts below any other byte — both exactly as raw byte
// order has it. It returns 0 exactly when SameCell holds.
//
// Because every cell encoding is either prefix-free against the other
// or, when one is a proper prefix, followed in the longer one by 0xff
// (above every kind tag and the end of a row), comparing two rows cell
// by cell with CompareCells yields bytes.Compare of their AppendRow keys.
func CompareCells(a, b kb.Value) int {
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	if a.Kind != kb.KindNumber {
		return strings.Compare(a.Str, b.Str)
	}
	x, y := orderBits(a.Num), orderBits(b.Num)
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// CompareRows orders two rows as bytes.Compare orders their AppendRow
// keys: CompareCells cell by cell, a row that is a cell-wise prefix of
// the other first.
func CompareRows(a, b []kb.Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := CompareCells(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// orderBits is the number image AppendValue writes big-endian: NaN
// canonicalised, then the sign-flip transform that makes unsigned order
// numeric order.
func orderBits(f float64) uint64 {
	bits := math.Float64bits(f)
	if f != f {
		bits = 0x7FF8000000000000
	}
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// SameCell reports whether two cells are equal under the engine's value
// semantics — the equality AppendValue encodes: kind-strict, string
// payloads byte-equal, numbers by IEEE bit image with every NaN in one
// class. (kb.Value.Equal alone would call +0 and -0 equal and every NaN
// unequal to itself, diverging from the row keys the executors dedup
// and sort on.)
func SameCell(a, b kb.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == kb.KindNumber {
		return math.Float64bits(a.Num) == math.Float64bits(b.Num) ||
			(math.IsNaN(a.Num) && math.IsNaN(b.Num))
	}
	return a.Str == b.Str
}
