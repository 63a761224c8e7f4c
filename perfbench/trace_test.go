package main

import (
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	op := tr.begin("bench", 0, -1)
	call := tr.begin("serve", 0, op)
	tr.end(call)
	tr.end(op)
	// Fix the times: a 10ms operation around a 4ms call.
	tr.spans[op].Start, tr.spans[op].End = 0, 10e6
	tr.spans[call].Start, tr.spans[call].End = 3e6, 7e6
	self := tr.selfNs()
	if self["bench"] != 6e6 || self["serve"] != 4e6 {
		t.Fatalf("self times %v, want bench 6ms and serve 4ms", self)
	}
	if err := tr.write(filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
		t.Fatal(err)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if i := tr.begin("bench", 0, -1); i != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", i)
	}
	tr.end(-1)
	if len(tr.selfNs()) != 0 || tr.write("unused") != nil {
		t.Fatal("nil tracer must record and write nothing")
	}
}
