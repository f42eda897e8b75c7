package mem

import (
	"math/bits"
	"sync"
)

// Page buffers cycle fast on the shuffle hot path — a Job allocates its send
// set and containers allocate receive pages every round, and all of it is
// dead a round later. Recycling the backing arrays through power-of-two size
// classes removes both the make() zeroing and the GC scan pressure of that
// churn. The arena still accounts every page at its requested size; the pool
// only reuses the underlying memory.
//
// Pooled buffers are NOT zeroed: a recycled page carries arbitrary stale
// bytes past Used. Every consumer in this repo writes a range before reading
// it (containers reserve-then-fill, spill restore reads the full spilled
// prefix, the core send set transmits only written partition prefixes), so
// nothing observes the stale bytes.
const (
	minPageBits = 10 // 1 KiB — smaller buffers are cheap to allocate
	maxPageBits = 26 // 64 MiB — bigger buffers are too rare to hoard
)

// exactAbove is the size past which a pool miss that is not a power of two
// allocates exactly n bytes instead of rounding up to its class: a 4.2 MiB
// KMV page would otherwise hold 8 MiB of Go memory for 4.2 MiB of arena
// charge. Such a buffer is filed by its capacity rounded down, so it is
// reused by smaller requests only; small buffers keep the class rounding
// that lets them recycle freely.
const exactAbove = 1 << 20

var pagePools [maxPageBits - minPageBits + 1]sync.Pool

// getPageBuf returns a slice of length n (cap possibly larger: a recycled
// buffer, or a fresh one rounded up to the size class unless exactAbove
// applies). Contents are arbitrary.
func getPageBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	if n > 1<<maxPageBits {
		return make([]byte, n)
	}
	c := bits.Len(uint(n-1)) - minPageBits
	if c < 0 {
		c = 0
	}
	if v := pagePools[c].Get(); v != nil {
		return v.([]byte)[:n]
	}
	if n > exactAbove && n&(n-1) != 0 {
		return make([]byte, n)
	}
	return make([]byte, n, 1<<(minPageBits+c))
}

// putPageBuf recycles a buffer obtained from getPageBuf (or anywhere else).
// It is filed by capacity rounded DOWN, preserving the invariant that class
// c holds only buffers with cap >= 1<<(minPageBits+c).
func putPageBuf(b []byte) {
	n := cap(b)
	if n < 1<<minPageBits || n > 1<<maxPageBits {
		return
	}
	c := bits.Len(uint(n)) - 1 - minPageBits
	pagePools[c].Put(b[:0:n])
}
