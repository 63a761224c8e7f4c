package rowcodec

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/kb"
)

// codecValues is a spread of adversarial values: kind collisions under
// Format(), NUL-bearing payloads, escape-sequence lookalikes, float edge
// cases.
func codecValues() []kb.Value {
	return []kb.Value{
		kb.Term("Vehicle"),
		kb.Term("3000"),
		kb.Number(3000),
		kb.String("3000"),
		kb.Term(`"x"`),
		kb.String("x"),
		kb.Term(""),
		kb.String(""),
		kb.Term("a\x00b"),
		kb.Term("a\x00\xffb"),
		kb.String("a\x00b"),
		kb.Term("a"),
		kb.Term("b"),
		kb.Number(0),
		kb.Number(math.Copysign(0, -1)),
		kb.Number(math.Inf(1)),
		kb.Number(math.Inf(-1)),
		kb.Number(math.NaN()),
		kb.Number(-1.5),
		kb.Number(1.5),
	}
}

func TestRoundTripAndInjective(t *testing.T) {
	vals := codecValues()
	for i, v := range vals {
		enc := AppendValue(nil, v)
		dec, n, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(enc) {
			t.Fatalf("decode %v consumed %d of %d bytes", v, n, len(enc))
		}
		if !SameCell(v, dec) && !(math.IsNaN(v.Num) && math.IsNaN(dec.Num)) {
			t.Fatalf("round trip changed %#v into %#v", v, dec)
		}
		for j, w := range vals {
			same := bytes.Equal(enc, AppendValue(nil, w))
			want := SameCell(v, w)
			if same != want {
				t.Fatalf("encodings of %#v (%d) and %#v (%d): equal=%v, SameCell=%v",
					v, i, w, j, same, want)
			}
		}
	}
}

// TestOrderPreserving: byte order of encodings equals value order within
// a kind (the property the row sort relies on).
func TestOrderPreserving(t *testing.T) {
	pairs := [][2]kb.Value{
		{kb.Number(-2), kb.Number(-1)},
		{kb.Number(-1), kb.Number(0)},
		{kb.Number(math.Copysign(0, -1)), kb.Number(0)},
		{kb.Number(0), kb.Number(1)},
		{kb.Number(math.Inf(-1)), kb.Number(-1e300)},
		{kb.Number(1e300), kb.Number(math.Inf(1))},
		{kb.Term("a"), kb.Term("b")},
		{kb.Term("a"), kb.Term("ab")},
		{kb.String("x"), kb.String("y")},
	}
	for _, p := range pairs {
		lo, hi := AppendValue(nil, p[0]), AppendValue(nil, p[1])
		if bytes.Compare(lo, hi) >= 0 {
			t.Fatalf("encoding of %v not below %v", p[0], p[1])
		}
	}
}

// TestRowFraming: concatenated fields must never re-frame into a
// colliding row key.
func TestRowFraming(t *testing.T) {
	a := AppendRow(nil, []kb.Value{kb.Term("a\x00"), kb.Term("b")})
	b := AppendRow(nil, []kb.Value{kb.Term("a"), kb.Term("\x00b")})
	c := AppendRow(nil, []kb.Value{kb.Term("a"), kb.Term(""), kb.Term("b")})
	if bytes.Equal(a, b) || bytes.Equal(a, c) || bytes.Equal(b, c) {
		t.Fatalf("row keys collide: %q %q %q", a, b, c)
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, b := range [][]byte{
		nil,
		{},
		{0x07},                                 // unknown kind
		{byte(kb.KindNumber), 1, 2, 3},         // truncated float
		{byte(kb.KindTerm), 'a'},               // unterminated payload
		{byte(kb.KindString), 'a', 0x00, 0xff}, // escape then nothing
	} {
		if _, _, err := DecodeValue(b); err == nil && len(b) > 0 && b[0] == byte(kb.KindString) {
			// "a\x00\xff" decodes only if a later terminator exists; the
			// 4-byte case above has none and must error.
			t.Fatalf("DecodeValue(%v) accepted garbage", b)
		}
	}
	if _, _, err := DecodeValue([]byte{byte(kb.KindString), 'a', 0x00, 0xff}); err == nil {
		t.Fatalf("unterminated escaped payload accepted")
	}
}

// fuzzCell builds a cell of any kind from fuzz inputs; kinds outside
// the three real ones fold onto them so every input is a valid cell.
func fuzzCell(kind uint8, str string, bits uint64) kb.Value {
	switch kb.ValueKind(kind % 3) {
	case kb.KindNumber:
		return kb.Number(math.Float64frombits(bits))
	case kb.KindString:
		return kb.String(str)
	}
	return kb.Term(str)
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// checkCompare asserts CompareCells against the encoding it stands in
// for: same sign as bytes.Compare over AppendValue, zero exactly when
// SameCell holds, antisymmetric — and the same for two-cell rows, whose
// order must match bytes.Compare over AppendRow.
func checkCompare(t *testing.T, a, b kb.Value) {
	t.Helper()
	got := CompareCells(a, b)
	want := bytes.Compare(AppendValue(nil, a), AppendValue(nil, b))
	if sign(got) != want {
		t.Fatalf("CompareCells(%#v, %#v) = %d, encodings compare %d", a, b, got, want)
	}
	if (got == 0) != SameCell(a, b) {
		t.Fatalf("CompareCells(%#v, %#v) = %d but SameCell = %v", a, b, got, SameCell(a, b))
	}
	if sign(CompareCells(b, a)) != -sign(got) {
		t.Fatalf("CompareCells not antisymmetric on %#v, %#v", a, b)
	}
	for _, rows := range [][2][]kb.Value{
		{{a, b}, {b, a}},
		{{a}, {a, b}},
		{{a, a}, {b}},
	} {
		got := CompareRows(rows[0], rows[1])
		want := bytes.Compare(AppendRow(nil, rows[0]), AppendRow(nil, rows[1]))
		if sign(got) != want {
			t.Fatalf("CompareRows(%#v, %#v) = %d, row keys compare %d", rows[0], rows[1], got, want)
		}
	}
}

// TestCompareCellsMatchesEncoding runs the differential check over every
// pair of the adversarial codec values.
func TestCompareCellsMatchesEncoding(t *testing.T) {
	vals := codecValues()
	vals = append(vals,
		kb.Number(math.Float64frombits(0x7FF0000000000001)), // signalling NaN
		kb.Number(math.Float64frombits(0xFFF8000000000000)), // negative NaN
		kb.Term("a\x00"), kb.String("a\x00"), kb.Term("\x00"), kb.Term("a\xff"))
	for _, a := range vals {
		for _, b := range vals {
			checkCompare(t, a, b)
		}
	}
}

// FuzzCompareCells is the differential target for the projection's cell
// comparator: its order must be byte-identical to the row keys the
// spill runs and every other executor sort on.
func FuzzCompareCells(f *testing.F) {
	nan := math.Float64bits(math.NaN())
	negZero := math.Float64bits(math.Copysign(0, -1))
	seeds := []struct {
		ka uint8
		sa string
		ba uint64
		kb uint8
		sb string
		bb uint64
	}{
		{uint8(kb.KindTerm), "3000", 0, uint8(kb.KindNumber), "", math.Float64bits(3000)},
		{uint8(kb.KindTerm), "x", 0, uint8(kb.KindString), "x", 0},
		{uint8(kb.KindNumber), "", nan, uint8(kb.KindNumber), "", 0x7FF0000000000001},
		{uint8(kb.KindNumber), "", 0xFFF8000000000000, uint8(kb.KindNumber), "", 0x7FFFFFFFFFFFFFFF},
		{uint8(kb.KindNumber), "", negZero, uint8(kb.KindNumber), "", 0},
		{uint8(kb.KindTerm), "a\x00", 0, uint8(kb.KindTerm), "a", 0},
		{uint8(kb.KindString), "a\x00b", 0, uint8(kb.KindString), "a\x00\xffb", 0},
		{uint8(kb.KindTerm), "\x00", 0, uint8(kb.KindTerm), "", 0},
		{uint8(kb.KindString), "a\xff", 0, uint8(kb.KindString), "a\x00", 0},
	}
	for _, s := range seeds {
		f.Add(s.ka, s.sa, s.ba, s.kb, s.sb, s.bb)
	}
	f.Fuzz(func(t *testing.T, ka uint8, sa string, ba uint64, kbk uint8, sb string, bb uint64) {
		checkCompare(t, fuzzCell(ka, sa, ba), fuzzCell(kbk, sb, bb))
	})
}
