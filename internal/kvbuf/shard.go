package kvbuf

import (
	"fmt"

	"mimir/internal/mem"
)

// ShardedBucket is the engine's partial-reduction bucket and convert index:
// a Bucket's key space partitioned across independent shard buckets so
// concurrent workers can upsert disjoint shards without locks, while Scan
// replays the entries in exactly the insertion order a single Bucket would
// have produced. One shard is the serial case: it is that single Bucket.
// The contract that makes several shards work:
//
//   - a key always belongs to the shard ShardOf(HashKey(k)), and only that
//     shard's owning worker may Upsert it;
//   - every Upsert is tagged with the key's global sequence number — the
//     position in the serial KV stream of the KV that caused it;
//   - each shard remembers the sequence at which each of its keys first
//     appeared, and Scan merges the shards by that sequence.
//
// Because every worker walks the same KV stream in order (skipping keys of
// other shards), per-shard sequences are strictly increasing and the merge
// is a simple minimum-front scan. The sequence tables live in plain Go
// memory (8 bytes per unique key), deliberately outside the arena: they are
// scaffolding of the execution mode, not job data, and vanish with the
// bucket. A single shard records none.
//
// Distinct shards may be operated concurrently; operations on one shard
// must be serialized by its owner. Scan and Get require all writers to have
// finished (synchronize via the worker join).
type ShardedBucket struct {
	shards []*Bucket
	seqs   [][]uint64 // per shard: first-appearance seq of entry i
}

// NewShardedBucket creates a bucket sharded nshards ways. A non-nil room
// routes the shards' arena charges through a spill store's Reserve (see
// NewBucketOn); the store is not safe for concurrent use, so callers pass
// one only with a single shard.
func NewShardedBucket(room PageStore, arena *mem.Arena, pageSize, nshards int) (*ShardedBucket, error) {
	if nshards < 1 {
		return nil, fmt.Errorf("kvbuf: sharded bucket needs >= 1 shards, got %d", nshards)
	}
	b := &ShardedBucket{shards: make([]*Bucket, nshards)}
	if nshards > 1 {
		b.seqs = make([][]uint64, nshards)
	}
	for i := range b.shards {
		s, err := NewBucketOn(room, arena, pageSize)
		if err != nil {
			b.Free()
			return nil, err
		}
		b.shards[i] = s
	}
	return b, nil
}

// NumShards returns the shard count.
func (b *ShardedBucket) NumShards() int { return len(b.shards) }

// ShardOf returns the shard owning the key whose HashKey is h. It reuses
// the key hash that routes KVs to ranks, so sharding adds no hash pass,
// but reads its high half: ranks route by h mod P, and sharding by the low
// bits too would hand all of a rank's keys to one shard whenever the shard
// count shares a factor with P. The low bits are just as skewed for the
// shard's own hash slots, which is why Bucket mixes the whole hash to pick
// one. The high half is scaled onto [0, shards) by a multiply and a shift
// rather than a division, which costs nothing on the one-shard path.
func (b *ShardedBucket) ShardOf(h uint64) int {
	return int((h >> 32) * uint64(len(b.shards)) >> 32)
}

// Upsert merges (k, v) into shard (which must equal ShardOf(h), h being
// HashKey(k)), recording seq if the key is new. Only the shard's owning
// worker may call this.
func (b *ShardedBucket) Upsert(shard int, seq, h uint64, k, v []byte, merge func(existing, incoming []byte) ([]byte, error)) error {
	s := b.shards[shard]
	if b.seqs == nil {
		return s.upsertHashed(h, k, v, merge)
	}
	before := s.Len()
	if err := s.upsertHashed(h, k, v, merge); err != nil {
		return err
	}
	if s.Len() > before {
		b.seqs[shard] = append(b.seqs[shard], seq)
	}
	return nil
}

// Get returns the value stored for k, whose HashKey is h. The slice
// aliases bucket memory.
func (b *ShardedBucket) Get(h uint64, k []byte) ([]byte, bool) {
	return b.shards[b.ShardOf(h)].getHashed(h, k)
}

// Len returns the number of unique keys across all shards.
func (b *ShardedBucket) Len() int {
	n := 0
	for _, s := range b.shards {
		n += s.Len()
	}
	return n
}

// MemoryBytes returns the arena reservation attributable to the bucket.
func (b *ShardedBucket) MemoryBytes() int64 {
	var n int64
	for _, s := range b.shards {
		if s != nil {
			n += s.MemoryBytes()
		}
	}
	return n
}

// Scan calls fn for every (key, value) in global first-appearance order —
// the insertion order a single Bucket fed the same KV stream would have —
// by merging the shards on their recorded sequences. Slices alias bucket
// memory.
func (b *ShardedBucket) Scan(fn func(k, v []byte) error) error {
	if b.seqs == nil {
		return b.shards[0].Scan(fn)
	}
	cur := make([]int, len(b.shards))
	remaining := b.Len()
	for ; remaining > 0; remaining-- {
		best := -1
		var bestSeq uint64
		for s := range b.shards {
			if cur[s] >= len(b.seqs[s]) {
				continue
			}
			if seq := b.seqs[s][cur[s]]; best < 0 || seq < bestSeq {
				best, bestSeq = s, seq
			}
		}
		if best < 0 {
			return fmt.Errorf("kvbuf: sharded bucket scan lost entries (%d unscanned)", remaining)
		}
		k, v := b.shards[best].Entry(cur[best])
		cur[best]++
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return nil
}

// Free releases all shards back to the arena.
func (b *ShardedBucket) Free() {
	for i, s := range b.shards {
		if s != nil {
			s.Free()
			b.shards[i] = nil
		}
	}
	b.seqs = nil
}

// String summarizes the bucket for debugging.
func (b *ShardedBucket) String() string {
	return fmt.Sprintf("ShardedBucket{shards=%d keys=%d mem=%dB}", len(b.shards), b.Len(), b.MemoryBytes())
}

// Fanout runs fn(w) for every w in [0, n), concurrently when n > 1, and
// returns the lowest-numbered worker's error, so a multi-worker failure
// reports the same error on every run regardless of scheduling.
type Fanout func(n int, fn func(w int) error) error
