package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/kb"
	"repro/internal/rowcodec"
)

// digest is a kind-strict fingerprint of an answer: its variables and
// its rows in order, each cell in the row codec's encoding.
type digest [sha256.Size]byte

func digestRows(vars []string, rows [][]kb.Value) digest {
	h := sha256.New()
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(vars)))
	for _, v := range vars {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	h.Write(buf)
	for _, r := range rows {
		buf = rowcodec.AppendRow(buf[:0], r)
		h.Write(buf)
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// wireValue is oniond's JSON form of a value.
type wireValue struct {
	Kind  string          `json:"kind"`
	Value json.RawMessage `json:"value"`
}

// wireAnswer is the part of oniond's /query response the checks read.
type wireAnswer struct {
	Vars    []string      `json:"vars"`
	Rows    [][]wireValue `json:"rows"`
	Outcome string        `json:"outcome"`
}

func (w wireValue) decode() (kb.Value, error) {
	switch w.Kind {
	case "number":
		var n float64
		err := json.Unmarshal(w.Value, &n)
		return kb.Number(n), err
	case "string", "term":
		var s string
		if err := json.Unmarshal(w.Value, &s); err != nil {
			return kb.Value{}, err
		}
		if w.Kind == "string" {
			return kb.String(s), nil
		}
		return kb.Term(s), nil
	default:
		return kb.Value{}, fmt.Errorf("unknown value kind %q", w.Kind)
	}
}

// decodeAnswer parses a /query response body into its digest and row
// count.
func decodeAnswer(body []byte) (digest, int, string, error) {
	var a wireAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return digest{}, 0, "", fmt.Errorf("decoding answer: %w", err)
	}
	rows := make([][]kb.Value, len(a.Rows))
	for i, r := range a.Rows {
		row := make([]kb.Value, len(r))
		for j, c := range r {
			v, err := c.decode()
			if err != nil {
				return digest{}, 0, "", fmt.Errorf("row %d: %w", i, err)
			}
			row[j] = v
		}
		rows[i] = row
	}
	return digestRows(a.Vars, rows), len(rows), a.Outcome, nil
}
