package main

import (
	"testing"

	"repro/internal/kb"
)

func TestDecodeAnswerMatchesLibraryDigest(t *testing.T) {
	body := []byte(`{"vars":["x","p"],"rows":[[{"kind":"term","value":"carrier.C1"},{"kind":"number","value":1796.8000000000002}],[{"kind":"string","value":"O7"},{"kind":"number","value":3000}]],"outcome":"hit","stats":{}}`)
	want := digestRows([]string{"x", "p"}, [][]kb.Value{
		{kb.Term("carrier.C1"), kb.Number(1796.8000000000002)},
		{kb.String("O7"), kb.Number(3000)},
	})
	got, rows, outcome, err := decodeAnswer(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || rows != 2 || outcome != "hit" {
		t.Fatalf("digest match %v, rows %d, outcome %q", got == want, rows, outcome)
	}
}

func TestDigestIsKindStrict(t *testing.T) {
	a := digestRows([]string{"v"}, [][]kb.Value{{kb.Term("3000")}})
	b := digestRows([]string{"v"}, [][]kb.Value{{kb.Number(3000)}})
	c := digestRows([]string{"v"}, [][]kb.Value{{kb.String("3000")}})
	if a == b || a == c || b == c {
		t.Fatal("term, number and string 3000 must digest differently")
	}
	if digestRows([]string{"v"}, nil) == digestRows([]string{"w"}, nil) {
		t.Fatal("variable names must be part of the digest")
	}
}
