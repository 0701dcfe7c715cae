package main

// countFS is the faults.FS the journaled workload hands the daemon as
// Config.FS: the real filesystem with every fsync and written byte
// counted, and every write and fsync recorded as a span while the
// tracer is on.

import (
	"os"
	"sync/atomic"
	"time"

	"hetmem/internal/faults"
)

type countFS struct {
	faults.FS
	tr *tracer // nil: count only

	syncs, bytes atomic.Uint64
}

// fsCounts is a snapshot of the counters; sub gives the activity
// between two snapshots.
type fsCounts struct{ syncs, bytes uint64 }

func (c *countFS) counts() fsCounts {
	if c == nil {
		return fsCounts{}
	}
	return fsCounts{syncs: c.syncs.Load(), bytes: c.bytes.Load()}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{syncs: a.syncs - b.syncs, bytes: a.bytes - b.bytes}
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (faults.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

type countFile struct {
	faults.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.bytes.Add(uint64(n))
	f.fs.span(layerFSWrite, start)
	return n, err
}

func (f *countFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.syncs.Add(1)
	f.fs.span(layerFSSync, start)
	return err
}

func (c *countFS) span(l layer, start time.Time) {
	if c.tr.on() {
		c.tr.add(span{layer: l, member: -1, start: int64(start.Sub(c.tr.epoch))})
	}
}
