package pfs

import (
	"bytes"
	"runtime"
	"testing"

	"mimir/internal/simtime"
)

// pattern returns n bytes that differ at every offset a test might confuse.
func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7+i>>8) ^ salt
	}
	return b
}

func TestLocateMatchesExtentCaps(t *testing.T) {
	var start int64
	for i := 0; i < rampExtent+3; i++ {
		for _, at := range []int{0, 1, extentCap(i) - 1} {
			gi, gat := locate(start + int64(at))
			if gi != i || gat != at {
				t.Fatalf("locate(%d) = (%d,%d), want (%d,%d)", start+int64(at), gi, gat, i, at)
			}
		}
		start += int64(extentCap(i))
	}
}

// TestExtentBoundaries appends in uneven chunks so writes and reads
// straddle the first extent boundary, the end of the doubling ramp, and a
// boundary between two full-size extents.
func TestExtentBoundaries(t *testing.T) {
	fs := New(Config{Bandwidth: 1e9})
	c := simtime.NewClock()
	want := pattern(rampBytes+maxExtent+5000, 1)
	for rest, step := want, 1; len(rest) > 0; step = step*3 + 1 {
		n := min(step, len(rest))
		fs.Append(c, "f", rest[:n])
		rest = rest[n:]
	}
	if got := fs.Size("f"); got != int64(len(want)) {
		t.Fatalf("Size = %d, want %d", got, len(want))
	}
	all, err := fs.ReadAll(c, "f")
	if err != nil || !bytes.Equal(all, want) {
		t.Fatalf("ReadAll differs (err %v)", err)
	}
	for _, cut := range []int64{minExtent, rampBytes, rampBytes + maxExtent} {
		for _, span := range [][2]int64{{cut - 3, 6}, {cut - 1, 1}, {cut, 1}, {cut - minExtent, 2 * minExtent}} {
			off, n := span[0], span[1]
			got, err := fs.ReadAt(c, "f", off, n)
			if err != nil || !bytes.Equal(got, want[off:off+n]) {
				t.Errorf("ReadAt(%d,%d) = %v, %v", off, n, got, err)
			}
			dst := make([]byte, n)
			if err := fs.ReadInto(c, "f", off, dst); err != nil || !bytes.Equal(dst, want[off:off+n]) {
				t.Errorf("ReadInto(%d,%d) = %v, %v", off, n, dst, err)
			}
			patch := pattern(int(n), 0xA5)
			if err := fs.WriteAt(c, "f", off, patch); err != nil {
				t.Fatal(err)
			}
			copy(want[off:], patch)
		}
	}
	all, err = fs.ReadAll(c, "f")
	if err != nil || !bytes.Equal(all, want) {
		t.Fatalf("ReadAll after WriteAt differs (err %v)", err)
	}
	if got := fs.Size("f"); got != int64(len(want)) {
		t.Errorf("WriteAt changed Size to %d", got)
	}
}

func TestErrorTexts(t *testing.T) {
	fs := New(Config{})
	fs.Append(nil, "f", []byte("0123456789"))
	for _, tc := range []struct {
		err  error
		want string
	}{
		{func() error { _, err := fs.ReadAt(nil, "f", 8, 5); return err }(), `pfs: read [8,13) out of range of "f" (size 10)`},
		{fs.ReadInto(nil, "f", -1, make([]byte, 2)), `pfs: read [-1,1) out of range of "f" (size 10)`},
		{fs.WriteAt(nil, "f", 9, []byte("ab")), `pfs: write [9,11) out of range of "f" (size 10)`},
		{func() error { _, err := fs.ReadAt(nil, "g", 0, 1); return err }(), `pfs: no such file "g"`},
		{fs.ReadInto(nil, "g", 0, nil), `pfs: no such file "g"`},
		{fs.WriteAt(nil, "g", 0, nil), `pfs: no such file "g"`},
		{func() error { _, err := fs.ReadAll(nil, "g"); return err }(), `pfs: no such file "g"`},
	} {
		if tc.err == nil || tc.err.Error() != tc.want {
			t.Errorf("error = %v, want %q", tc.err, tc.want)
		}
	}
}

// TestReadIntoChargesLikeReadAt: the two reads differ only in who owns
// the buffer, so the clock and the counters must not tell them apart.
func TestReadIntoChargesLikeReadAt(t *testing.T) {
	cfg := Config{Bandwidth: 1e6, Latency: 1e-3, Sharers: 3}
	a, b := New(cfg), New(cfg)
	ca, cb := simtime.NewClock(), simtime.NewClock()
	a.Append(nil, "f", pattern(100000, 2))
	b.Append(nil, "f", pattern(100000, 2))
	if _, err := a.ReadAt(ca, "f", 4000, 9000); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadInto(cb, "f", 4000, make([]byte, 9000)); err != nil {
		t.Fatal(err)
	}
	ra, wa, oa := a.Stats()
	rb, wb, ob := b.Stats()
	if ca.Spent(simtime.IO) != cb.Spent(simtime.IO) || ra != rb || wa != wb || oa != ob {
		t.Errorf("ReadAt charged %v (%d,%d,%d), ReadInto %v (%d,%d,%d)",
			ca.Spent(simtime.IO), ra, wa, oa, cb.Spent(simtime.IO), rb, wb, ob)
	}
}

func TestReadIntoDoesNotAllocate(t *testing.T) {
	fs := New(Config{Bandwidth: 1e9})
	c := simtime.NewClock()
	fs.Append(c, "f", pattern(3*maxExtent, 3))
	dst := make([]byte, 64<<10)
	allocs := testing.AllocsPerRun(20, func() {
		if err := fs.ReadInto(c, "f", rampBytes-100, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadInto: %v allocations per call, want 0", allocs)
	}
}

// TestAppendToLargeFileAllocatesOneExtentAtMost: appending never copies
// what the file already holds, so a page appended to a 64 MiB spill file
// costs at most one new extent, not a regrown 64 MiB slice.
func TestAppendToLargeFileAllocatesOneExtentAtMost(t *testing.T) {
	fs := New(Config{Bandwidth: 1e9})
	page := pattern(64<<10, 4)
	for fs.Size("f") < 64<<20 {
		fs.Append(nil, "f", page)
	}
	var before, after runtime.MemStats
	for i := 0; i < 40; i++ {
		runtime.ReadMemStats(&before)
		fs.Append(nil, "f", page)
		runtime.ReadMemStats(&after)
		// One extent, plus slack for growing the list of extents.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxExtent+8<<10 {
			t.Fatalf("append %d allocated %d bytes, want <= one %d-byte extent", i, grew, maxExtent)
		}
	}
}
