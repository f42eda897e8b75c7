package kvbuf

import (
	"bytes"
	"fmt"
	"math/bits"

	"mimir/internal/mem"
)

// bucketEntryBytes is the accounting charge per hash-bucket entry (hash,
// refs, lengths, chain link).
const bucketEntryBytes = 40

// Bucket is the hash bucket used by the KV compression and partial
// reduction optimizations: it holds one KV per unique key and merges
// incoming duplicates via a user callback. Key/value bytes live in
// arena-charged pages; the entry table and chain heads are charged to the
// arena as estimates of their in-memory size, so enabling a combiner
// *costs* memory up front and only pays off past a compression-ratio
// threshold — a trade-off the paper calls out explicitly.
type Bucket struct {
	arena   *mem.Arena
	room    PageStore // optional eviction hook for arena charges
	data    *pagedBuf
	entries []bucketEntry
	heads   []int32
	// shift maps a key hash onto heads; see slot.
	shift uint
	// garbage counts dead value bytes left behind by size-changing updates.
	garbage int64
	// headCharged is the arena charge currently held for the heads table.
	headCharged int64
}

type bucketEntry struct {
	hash   uint64
	keyRef ref
	valRef ref
	keyLen int32
	valLen int32
	next   int32
}

const initialHeads = 64

// NewBucket creates an empty bucket whose storage pages come from arena.
func NewBucket(arena *mem.Arena, pageSize int) (*Bucket, error) {
	return NewBucketOn(nil, arena, pageSize)
}

// NewBucketOn creates a bucket whose arena charges are routed through a
// spill store's Reserve. The bucket itself never spills — it is
// random-access on every operation — but its growth can evict spillable
// container pages instead of failing, which keeps the out-of-core convert
// and combiner paths alive under pressure. A nil room is NewBucket.
func NewBucketOn(room PageStore, arena *mem.Arena, pageSize int) (*Bucket, error) {
	pb := newPagedBuf(arena, pageSize)
	pb.room = room
	b := &Bucket{arena: arena, room: room, data: pb}
	if err := b.setHeads(initialHeads); err != nil {
		return nil, err
	}
	return b, nil
}

// alloc charges n non-page bytes, evicting through the room store when one
// is attached. The matching release is always a plain Arena.Free.
func (b *Bucket) alloc(n int64) error {
	if b.room != nil {
		return b.room.Reserve(n)
	}
	return b.arena.Alloc(n)
}

func (b *Bucket) setHeads(n int) error {
	charge := int64(n) * 4
	if err := b.alloc(charge); err != nil {
		return err
	}
	if b.headCharged > 0 {
		b.arena.Free(b.headCharged)
	}
	b.headCharged = charge
	b.heads = make([]int32, n)
	b.shift = 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range b.heads {
		b.heads[i] = -1
	}
	for i := range b.entries {
		slot := b.slot(b.entries[i].hash)
		b.entries[i].next = b.heads[slot]
		b.heads[slot] = int32(i)
	}
	return nil
}

// slot picks the chain for key hash h from the top bits of a Fibonacci
// multiply. The low bits of h are not free to use directly: a rank only
// holds keys with h % P == rank, so for even P they are fixed, and a mask
// would crowd every key into 1/P of the slots.
func (b *Bucket) slot(h uint64) int {
	return int((h * 0x9E3779B97F4A7C15) >> b.shift)
}

// Len returns the number of unique keys.
func (b *Bucket) Len() int { return len(b.entries) }

// MemoryBytes returns the arena reservation attributable to the bucket.
func (b *Bucket) MemoryBytes() int64 {
	return b.data.reservedBytes() + int64(len(b.entries))*bucketEntryBytes + b.headCharged
}

// GarbageBytes returns dead bytes left by size-changing value updates.
func (b *Bucket) GarbageBytes() int64 { return b.garbage }

func (b *Bucket) find(h uint64, k []byte) int32 {
	for i := b.heads[b.slot(h)]; i >= 0; i = b.entries[i].next {
		e := &b.entries[i]
		if e.hash == h && int(e.keyLen) == len(k) &&
			bytes.Equal(b.data.at(e.keyRef, int(e.keyLen)), k) {
			return i
		}
	}
	return -1
}

// Get returns the value stored for k. The slice aliases bucket memory.
func (b *Bucket) Get(k []byte) ([]byte, bool) {
	return b.getHashed(HashKey(k), k)
}

// getHashed is Get for a caller that already holds k's HashKey.
func (b *Bucket) getHashed(h uint64, k []byte) ([]byte, bool) {
	i := b.find(h, k)
	if i < 0 {
		return nil, false
	}
	e := &b.entries[i]
	return b.data.at(e.valRef, int(e.valLen)), true
}

// Put inserts (k, v), replacing any existing value. Same-length replacement
// is done in place; a different length appends new storage and leaves the
// old bytes as garbage.
func (b *Bucket) Put(k, v []byte) error {
	h := HashKey(k)
	if i := b.find(h, k); i >= 0 {
		return b.replaceValue(&b.entries[i], v)
	}
	return b.insert(h, k, v)
}

// Upsert merges v into the entry for k: if k is absent, (k, v) is inserted;
// otherwise merge(existing, v) produces the replacement value. This is the
// paper's combiner protocol — "the partial-reduction callback is called,
// which reduces these two KVs into a single KV. The existing KV in the hash
// bucket then is replaced with the reduced version."
func (b *Bucket) Upsert(k, v []byte, merge func(existing, incoming []byte) ([]byte, error)) error {
	return b.upsertHashed(HashKey(k), k, v, merge)
}

// upsertHashed is Upsert for a caller that already holds k's HashKey.
func (b *Bucket) upsertHashed(h uint64, k, v []byte, merge func(existing, incoming []byte) ([]byte, error)) error {
	i := b.find(h, k)
	if i < 0 {
		return b.insert(h, k, v)
	}
	e := &b.entries[i]
	merged, err := merge(b.data.at(e.valRef, int(e.valLen)), v)
	if err != nil {
		return err
	}
	return b.replaceValue(e, merged)
}

func (b *Bucket) replaceValue(e *bucketEntry, v []byte) error {
	if len(v) == int(e.valLen) {
		copy(b.data.at(e.valRef, int(e.valLen)), v)
		return nil
	}
	r, err := b.data.append(v)
	if err != nil {
		return err
	}
	b.garbage += int64(e.valLen)
	e.valRef = r
	e.valLen = int32(len(v))
	return nil
}

func (b *Bucket) insert(h uint64, k, v []byte) error {
	if len(b.entries) >= 2*len(b.heads) {
		if err := b.setHeads(2 * len(b.heads)); err != nil {
			return err
		}
	}
	if err := b.alloc(bucketEntryBytes); err != nil {
		return err
	}
	kr, err := b.data.append(k)
	if err != nil {
		b.arena.Free(bucketEntryBytes)
		return err
	}
	vr, err := b.data.append(v)
	if err != nil {
		b.arena.Free(bucketEntryBytes)
		return err
	}
	slot := b.slot(h)
	b.entries = append(b.entries, bucketEntry{
		hash: h, keyRef: kr, valRef: vr,
		keyLen: int32(len(k)), valLen: int32(len(v)),
		next: b.heads[slot],
	})
	b.heads[slot] = int32(len(b.entries) - 1)
	return nil
}

// Entry returns the i'th entry in insertion order (0 <= i < Len). The
// slices alias bucket memory. It is the random-access counterpart of Scan,
// used by the sharded bucket's ordered merge.
func (b *Bucket) Entry(i int) (k, v []byte) {
	e := &b.entries[i]
	return b.data.at(e.keyRef, int(e.keyLen)), b.data.at(e.valRef, int(e.valLen))
}

// Scan calls fn for every (key, value) in insertion order, making iteration
// deterministic. Slices alias bucket memory.
func (b *Bucket) Scan(fn func(k, v []byte) error) error {
	for i := range b.entries {
		e := &b.entries[i]
		if err := fn(b.data.at(e.keyRef, int(e.keyLen)), b.data.at(e.valRef, int(e.valLen))); err != nil {
			return err
		}
	}
	return nil
}

// Free releases all storage back to the arena.
func (b *Bucket) Free() {
	b.data.free()
	b.arena.Free(int64(len(b.entries)) * bucketEntryBytes)
	if b.headCharged > 0 {
		b.arena.Free(b.headCharged)
		b.headCharged = 0
	}
	b.entries = nil
	b.heads = nil
	b.garbage = 0
}

// String summarizes the bucket for debugging.
func (b *Bucket) String() string {
	return fmt.Sprintf("Bucket{keys=%d mem=%dB garbage=%dB}", b.Len(), b.MemoryBytes(), b.garbage)
}
