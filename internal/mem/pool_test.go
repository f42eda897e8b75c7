package mem

import (
	"math/bits"
	"testing"
)

// drainClass empties the pool class a request of n bytes draws from, so
// the next getPageBuf(n) is a miss whatever earlier tests recycled.
func drainClass(n int) {
	c := max(bits.Len(uint(n-1))-minPageBits, 0)
	if c >= len(pagePools) {
		return
	}
	for pagePools[c].Get() != nil {
	}
}

func TestLargeOddPageBufIsExactSize(t *testing.T) {
	const n = 4<<20 + 200<<10 // a 4.2 MiB hot-key KMV page
	drainClass(n)
	b := getPageBuf(n)
	if len(b) != n || cap(b) != n {
		t.Errorf("getPageBuf(%d): len %d cap %d, want both %d", n, len(b), cap(b), n)
	}
}

func TestPageBufPoolingKeepsClasses(t *testing.T) {
	for _, tc := range []struct{ n, cap int }{
		{1 << 22, 1 << 22},      // power of two: its own class
		{1 << 20, 1 << 20},      // power of two at the exact-size threshold
		{600 << 10, 1 << 20},    // small odd size: rounded up to its class
		{1<<20 + 1, 1<<20 + 1},  // just past the threshold: exact
		{3000, 4096},            // small buffers round up
		{100, 1 << minPageBits}, // below the smallest class
	} {
		drainClass(tc.n)
		if b := getPageBuf(tc.n); len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("getPageBuf(%d): len %d cap %d, want cap %d", tc.n, len(b), cap(b), tc.cap)
		}
	}
}
