// Package pfs simulates the globally shared parallel file system of a
// supercomputer (Lustre on Comet, GPFS behind 1:128 I/O forwarding nodes on
// Mira). Supercomputer nodes have no local disk, so both input data and
// MR-MPI's out-of-core page spills go through this file system — which is
// why spilling costs orders of magnitude more than memory and produces the
// performance cliff of Figure 1.
//
// Files are backed by process memory (this is a simulation of storage, so
// their bytes are deliberately NOT charged to any node's memory arena);
// every operation charges simulated I/O time to the calling rank's clock
// using a shared-bandwidth model.
package pfs

import (
	"fmt"
	"math/bits"
	"sync"

	"mimir/internal/simtime"
)

// Config describes the file system's performance.
type Config struct {
	// Bandwidth is the aggregate file-system bandwidth in (effective,
	// scale-calibrated) bytes per second.
	Bandwidth float64
	// Latency is the fixed per-operation cost in seconds (metadata, RPC).
	Latency float64
	// Sharers is the number of clients the aggregate bandwidth is divided
	// among: on Comet every rank of the job shares the Lustre pipes; on Mira
	// each group of 128 nodes funnels through one I/O forwarding node. The
	// experiment harness sets this to the number of ranks in the job
	// (capped by the forwarding ratio on Mira). Zero means 1.
	Sharers int
}

func (c Config) perClientSeconds(n int) float64 {
	sharers := c.Sharers
	if sharers < 1 {
		sharers = 1
	}
	if c.Bandwidth <= 0 {
		return c.Latency
	}
	return c.Latency + float64(n)*float64(sharers)/c.Bandwidth
}

// FS is a simulated parallel file system shared by all ranks.
type FS struct {
	cfg Config

	mu           sync.Mutex
	files        map[string]*file
	bytesRead    int64
	bytesWritten int64
	ops          int64
}

// A file's bytes live in a list of extents rather than one growing slice,
// so an append copies its data once and never moves what is already
// written; a slice grown by append would re-copy the whole file at every
// doubling and leave the old copy to the GC. Extents fill in order; extent
// i has capacity extentCap(i), doubling from minExtent to maxExtent, so a
// 16-byte checkpoint header costs 4 KiB while a big spill file wastes at
// most one partly filled maxExtent. Extents are not pooled across files:
// recycling them measured no lower peak RSS or job time, and a pooled
// extent outlives the file it served.
const (
	minExtent  = 4 << 10
	maxExtent  = 1 << 20
	rampExtent = 8 // extents 0..7 double from minExtent; the rest are maxExtent
	rampBytes  = maxExtent - minExtent
)

type file struct {
	extents [][]byte // every extent is allocated at its full capacity
	size    int64
}

func extentCap(i int) int {
	if i >= rampExtent {
		return maxExtent
	}
	return minExtent << i
}

// locate maps a file offset to its extent and the offset within it.
func locate(off int64) (int, int) {
	if off < rampBytes {
		i := bits.Len64(uint64(off/minExtent+1)) - 1
		return i, int(off - minExtent*(1<<i-1))
	}
	off -= rampBytes
	return rampExtent + int(off/maxExtent), int(off % maxExtent)
}

// append copies data onto the end of f, adding extents as needed.
func (f *file) append(data []byte) {
	for len(data) > 0 {
		i, at := locate(f.size)
		if i == len(f.extents) {
			f.extents = append(f.extents, make([]byte, extentCap(i)))
		}
		n := copy(f.extents[i][at:], data)
		data = data[n:]
		f.size += int64(n)
	}
}

// readAt copies len(dst) bytes at off into dst; the range must be in f.
func (f *file) readAt(dst []byte, off int64) {
	i, at := locate(off)
	for len(dst) > 0 {
		n := copy(dst, f.extents[i][at:])
		dst = dst[n:]
		i, at = i+1, 0
	}
}

// writeAt copies data over the range at off; the range must be in f.
func (f *file) writeAt(off int64, data []byte) {
	i, at := locate(off)
	for len(data) > 0 {
		n := copy(f.extents[i][at:], data)
		data = data[n:]
		i, at = i+1, 0
	}
}

// New creates an empty file system.
func New(cfg Config) *FS {
	return &FS{cfg: cfg, files: make(map[string]*file)}
}

// Append adds data to the end of the named file (creating it if needed) and
// charges the write cost to clock.
func (fs *FS) Append(clock *simtime.Clock, name string, data []byte) {
	fs.mu.Lock()
	f := fs.files[name]
	if f == nil {
		f = &file{}
		fs.files[name] = f
	}
	f.append(data)
	fs.bytesWritten += int64(len(data))
	fs.ops++
	fs.mu.Unlock()
	if clock != nil {
		clock.Advance(fs.cfg.perClientSeconds(len(data)), simtime.IO)
	}
}

// WriteAt overwrites len(data) bytes at offset off of the named file,
// charging the write cost to clock. The range must already exist: WriteAt
// rewrites a previously appended region in place (the spill store's dirty
// page rewrite), it does not extend the file.
func (fs *FS) WriteAt(clock *simtime.Clock, name string, off int64, data []byte) error {
	fs.mu.Lock()
	var err error
	f, ok := fs.files[name]
	switch {
	case !ok:
		err = fmt.Errorf("pfs: no such file %q", name)
	case off < 0 || off+int64(len(data)) > f.size:
		err = fmt.Errorf("pfs: write [%d,%d) out of range of %q (size %d)", off, off+int64(len(data)), name, f.size)
	default:
		f.writeAt(off, data)
		fs.bytesWritten += int64(len(data))
		fs.ops++
	}
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	if clock != nil {
		clock.Advance(fs.cfg.perClientSeconds(len(data)), simtime.IO)
	}
	return nil
}

// ReadAll returns a copy of the named file's contents, charging the read
// cost to clock. Reading a missing file is an error.
func (fs *FS) ReadAll(clock *simtime.Clock, name string) ([]byte, error) {
	fs.mu.Lock()
	f, ok := fs.files[name]
	var data []byte
	if ok {
		data = make([]byte, f.size)
		f.readAt(data, 0)
		fs.bytesRead += f.size
		fs.ops++
	}
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("pfs: no such file %q", name)
	}
	if clock != nil {
		clock.Advance(fs.cfg.perClientSeconds(len(data)), simtime.IO)
	}
	return data, nil
}

// ReadAt returns a copy of n bytes at offset off of the named file.
func (fs *FS) ReadAt(clock *simtime.Clock, name string, off, n int64) ([]byte, error) {
	dst := make([]byte, n)
	if err := fs.ReadInto(clock, name, off, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// ReadInto fills dst with the len(dst) bytes at offset off of the named
// file. It charges and counts exactly what ReadAt(clock, name, off,
// len(dst)) does, but reads into the caller's buffer: the spill store
// restores a page straight into its own page buffer.
func (fs *FS) ReadInto(clock *simtime.Clock, name string, off int64, dst []byte) error {
	n := int64(len(dst))
	fs.mu.Lock()
	var err error
	f, ok := fs.files[name]
	switch {
	case !ok:
		err = fmt.Errorf("pfs: no such file %q", name)
	case off < 0 || off+n > f.size:
		err = fmt.Errorf("pfs: read [%d,%d) out of range of %q (size %d)", off, off+n, name, f.size)
	default:
		f.readAt(dst, off)
		fs.bytesRead += n
		fs.ops++
	}
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	if clock != nil {
		clock.Advance(fs.cfg.perClientSeconds(int(n)), simtime.IO)
	}
	return nil
}

// Size returns the current size of the named file (0 if absent).
func (fs *FS) Size(name string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.files[name]; f != nil {
		return f.size
	}
	return 0
}

// Remove deletes the named file; removing a missing file is a no-op.
func (fs *FS) Remove(name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.files, name)
}

// ChargeRead charges clock for reading n bytes without transferring data.
// The workload generators use it to account for reading the (synthetic)
// input dataset from the parallel file system, which the paper includes in
// execution time.
func (fs *FS) ChargeRead(clock *simtime.Clock, n int64) {
	fs.mu.Lock()
	fs.bytesRead += n
	fs.ops++
	fs.mu.Unlock()
	if clock != nil {
		clock.Advance(fs.cfg.perClientSeconds(int(n)), simtime.IO)
	}
}

// Stats returns total bytes read, bytes written, and operation count.
func (fs *FS) Stats() (bytesRead, bytesWritten, ops int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.bytesRead, fs.bytesWritten, fs.ops
}
