package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kb"
	"repro/internal/persist"
	"repro/internal/vfs"
)

func TestCountingFSCountsByFileRole(t *testing.T) {
	dir := t.TempDir()
	fsys := newCountingFS(vfs.OS{})
	f, err := fsys.OpenFile(filepath.Join(dir, "log"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"a", "bb", "ccc"} {
		if _, err := f.Write([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tmp, err := fsys.CreateTemp(dir, "snapshot-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	tmp.Write([]byte("0123456789"))
	tmp.Close()
	if err := fsys.Rename(tmp.Name(), filepath.Join(dir, "snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile(filepath.Join(dir, "entry"), []byte("xyz"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := fsys.c.snap()
	if s.WriteCalls[classLog] != 3 || s.WriteBytes[classLog] != 6 {
		t.Errorf("log: %d writes / %d bytes, want 3 / 6", s.WriteCalls[classLog], s.WriteBytes[classLog])
	}
	if s.WriteCalls[classSnapshot] != 1 || s.WriteBytes[classSnapshot] != 10 {
		t.Errorf("snapshot: %d writes / %d bytes, want 1 / 10", s.WriteCalls[classSnapshot], s.WriteBytes[classSnapshot])
	}
	if s.WriteCalls[classOther] != 1 || s.WriteBytes[classOther] != 3 {
		t.Errorf("other: %d writes / %d bytes, want 1 / 3", s.WriteCalls[classOther], s.WriteBytes[classOther])
	}
	if s.FileSyncs != 1 || s.DirSyncs != 1 || s.Snapshots != 1 {
		t.Errorf("syncs %d/%d snapshots %d, want 1/1 and 1", s.FileSyncs, s.DirSyncs, s.Snapshots)
	}
	if s.BusyNs <= 0 {
		t.Error("no time recorded inside the wrapped filesystem")
	}
	if d := fsys.c.snap().sub(s); d != (fsSnap{}) {
		t.Errorf("delta of unchanged counters %+v, want zero", d)
	}
}

// The flush policy the benchmark records: through the persist layer,
// each appended fact is one write and no fsync; a snapshot fsyncs.
func TestCountingFSSeesPersistFlushPolicy(t *testing.T) {
	fsys := newCountingFS(vfs.OS{})
	d, err := persist.OpenFS(t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	src, err := d.Source("s")
	if err != nil {
		t.Fatal(err)
	}
	before := fsys.c.snap()
	var facts []kb.Fact
	for i := 0; i < 5; i++ {
		f := kb.Fact{Subject: "x", Predicate: "p", Object: kb.Number(float64(i))}
		facts = append(facts, f)
		if err := src.Append(f, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	appends := fsys.c.snap().sub(before)
	if appends.WriteCalls[classLog] != 5 {
		t.Errorf("%d log writes for 5 appends, want one per fact", appends.WriteCalls[classLog])
	}
	if appends.FileSyncs != 0 {
		t.Errorf("%d file fsyncs for 5 appends, want none", appends.FileSyncs)
	}
	before = fsys.c.snap()
	if err := src.Snapshot(facts, 5); err != nil {
		t.Fatal(err)
	}
	snap := fsys.c.snap().sub(before)
	if snap.Snapshots != 1 || snap.FileSyncs != 1 || snap.DirSyncs < 1 {
		t.Errorf("snapshot: %d published, %d file / %d dir fsyncs; want 1, 1, >= 1", snap.Snapshots, snap.FileSyncs, snap.DirSyncs)
	}
}
