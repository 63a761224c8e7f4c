package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// fileClass sorts persist files by role, from their base names.
type fileClass int

const (
	classLog fileClass = iota
	classSnapshot
	classOther
	numClasses
)

func classify(name string) fileClass {
	base := filepath.Base(name)
	switch {
	case base == "log":
		return classLog
	case strings.HasPrefix(base, "snapshot"):
		return classSnapshot
	default:
		return classOther
	}
}

// fsCounts are the counters one countingFS keeps. All fields are updated
// atomically, so the wrapper is safe wherever the wrapped FS is.
type fsCounts struct {
	writeCalls [numClasses]atomic.Int64
	writeBytes [numClasses]atomic.Int64
	fileSyncs  atomic.Int64
	dirSyncs   atomic.Int64
	snapshots  atomic.Int64 // renames onto a "snapshot" file
	busyNs     atomic.Int64 // time inside the wrapped calls
}

// fsSnap is a plain copy of fsCounts, for deltas.
type fsSnap struct {
	WriteCalls, WriteBytes [numClasses]int64
	FileSyncs, DirSyncs    int64
	Snapshots, BusyNs      int64
}

func (c *fsCounts) snap() fsSnap {
	var s fsSnap
	for i := range s.WriteCalls {
		s.WriteCalls[i] = c.writeCalls[i].Load()
		s.WriteBytes[i] = c.writeBytes[i].Load()
	}
	s.FileSyncs = c.fileSyncs.Load()
	s.DirSyncs = c.dirSyncs.Load()
	s.Snapshots = c.snapshots.Load()
	s.BusyNs = c.busyNs.Load()
	return s
}

func (s fsSnap) sub(o fsSnap) fsSnap {
	for i := range s.WriteCalls {
		s.WriteCalls[i] -= o.WriteCalls[i]
		s.WriteBytes[i] -= o.WriteBytes[i]
	}
	s.FileSyncs -= o.FileSyncs
	s.DirSyncs -= o.DirSyncs
	s.Snapshots -= o.Snapshots
	s.BusyNs -= o.BusyNs
	return s
}

func (s fsSnap) totalWrites() (calls, bytes int64) {
	for i := range s.WriteCalls {
		calls += s.WriteCalls[i]
		bytes += s.WriteBytes[i]
	}
	return calls, bytes
}

// countingFS is a vfs.FS that forwards every call and counts writes,
// fsyncs, snapshot publications and the time spent inside the wrapped
// filesystem. It measures the persist layer from outside, through the
// seam the program already exposes.
type countingFS struct {
	inner vfs.FS
	c     *fsCounts
}

func newCountingFS(inner vfs.FS) countingFS {
	return countingFS{inner: inner, c: new(fsCounts)}
}

func (f countingFS) timed(start time.Time) { f.c.busyNs.Add(int64(time.Since(start))) }

func (f countingFS) wrap(file vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{File: file, fs: f, class: classify(file.Name())}, nil
}

func (f countingFS) MkdirAll(path string, perm os.FileMode) error {
	defer f.timed(time.Now())
	return f.inner.MkdirAll(path, perm)
}

func (f countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	defer f.timed(time.Now())
	return f.wrap(f.inner.OpenFile(name, flag, perm))
}

func (f countingFS) Open(name string) (vfs.File, error) {
	defer f.timed(time.Now())
	return f.wrap(f.inner.Open(name))
}

func (f countingFS) ReadFile(name string) ([]byte, error) {
	defer f.timed(time.Now())
	return f.inner.ReadFile(name)
}

func (f countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	defer f.timed(time.Now())
	cl := classify(name)
	f.c.writeCalls[cl].Add(1)
	f.c.writeBytes[cl].Add(int64(len(data)))
	return f.inner.WriteFile(name, data, perm)
}

func (f countingFS) Remove(name string) error {
	defer f.timed(time.Now())
	return f.inner.Remove(name)
}

func (f countingFS) Rename(oldpath, newpath string) error {
	defer f.timed(time.Now())
	err := f.inner.Rename(oldpath, newpath)
	if err == nil && filepath.Base(newpath) == "snapshot" {
		f.c.snapshots.Add(1)
	}
	return err
}

func (f countingFS) Truncate(name string, size int64) error {
	defer f.timed(time.Now())
	return f.inner.Truncate(name, size)
}

func (f countingFS) Stat(name string) (fs.FileInfo, error) {
	defer f.timed(time.Now())
	return f.inner.Stat(name)
}

func (f countingFS) ReadDir(name string) ([]fs.DirEntry, error) {
	defer f.timed(time.Now())
	return f.inner.ReadDir(name)
}

func (f countingFS) Glob(pattern string) ([]string, error) {
	defer f.timed(time.Now())
	return f.inner.Glob(pattern)
}

func (f countingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	defer f.timed(time.Now())
	return f.wrap(f.inner.CreateTemp(dir, pattern))
}

func (f countingFS) SyncDir(dir string) error {
	defer f.timed(time.Now())
	f.c.dirSyncs.Add(1)
	return f.inner.SyncDir(dir)
}

// countingFile counts the writes and fsyncs on one open file.
type countingFile struct {
	vfs.File
	fs    countingFS
	class fileClass
}

func (f countingFile) Write(p []byte) (int, error) {
	defer f.fs.timed(time.Now())
	f.fs.c.writeCalls[f.class].Add(1)
	n, err := f.File.Write(p)
	f.fs.c.writeBytes[f.class].Add(int64(n))
	return n, err
}

func (f countingFile) Read(p []byte) (int, error) {
	defer f.fs.timed(time.Now())
	return f.File.Read(p)
}

func (f countingFile) Sync() error {
	defer f.fs.timed(time.Now())
	f.fs.c.fileSyncs.Add(1)
	return f.File.Sync()
}
