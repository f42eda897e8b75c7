package kvbuf

import (
	"fmt"
	"testing"

	"mimir/internal/mem"
)

// meanChainPos is the mean 1-based position of an entry in its hash chain:
// the average number of entries a lookup of a present key visits.
func meanChainPos(b *Bucket) float64 {
	var sum, n int
	for _, head := range b.heads {
		pos := 0
		for i := head; i >= 0; i = b.entries[i].next {
			pos++
			sum += pos
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// TestBucketSlotsSpreadOnEveryRank fills buckets with only the keys one
// rank of P receives (HashKey(k) % P == 0), as the partial-reduce bucket
// and convert's index see them, and checks that the chains stay short.
// Choosing a slot from the low bits of the hash fails this for P >= 8: a
// rank's keys share those bits and crowd into 1/P of the slots.
func TestBucketSlotsSpreadOnEveryRank(t *testing.T) {
	const keys = 4096
	kinds := map[string]func(i uint64) []byte{
		"u64":  u64,
		"word": func(i uint64) []byte { return fmt.Appendf(nil, "w%dx", i) },
	}
	for name, key := range kinds {
		for _, p := range []uint64{1, 2, 8, 64} {
			for _, w := range []int{1, 2, 8} {
				sb, err := NewShardedBucket(nil, mem.NewArena(0), 1<<16, w)
				if err != nil {
					t.Fatal(err)
				}
				for i, got := uint64(0), 0; got < keys; i++ {
					k := key(i)
					h := HashKey(k)
					if h%p != 0 {
						continue
					}
					got++
					if err := sb.Upsert(sb.ShardOf(h), uint64(got), h, k, u64(1), sumMerge); err != nil {
						t.Fatal(err)
					}
				}
				for s, b := range sb.shards {
					if m := meanChainPos(b); m > 3 {
						t.Errorf("%s keys, P=%d, W=%d, shard %d: mean chain position %.2f over %d keys, want <= 3",
							name, p, w, s, m, b.Len())
					}
				}
				sb.Free()
			}
		}
	}
}
