package kvbuf

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mimir/internal/mem"
)

// shardMerge is the merge used by the shard determinism tests: same-length
// pairs are folded byte-wise (exercising the bucket's in-place replacement),
// different lengths concatenate (exercising relocation + garbage).
func shardMerge(existing, incoming []byte) ([]byte, error) {
	if len(existing) == len(incoming) {
		for i := range existing {
			existing[i] += incoming[i]
		}
		return existing, nil
	}
	merged := append(append([]byte{}, existing...), incoming...)
	if len(merged) > 32 {
		merged = merged[:32]
	}
	return merged, nil
}

// feedSharded replays stream into a sharded bucket exactly the way the
// engine's workers do: every worker walks the full stream with a global
// sequence counter and upserts only its own shard's keys.
func feedSharded(t testing.TB, sb *ShardedBucket, stream [][2][]byte) {
	t.Helper()
	for w := 0; w < sb.NumShards(); w++ {
		var seq uint64
		for _, kv := range stream {
			cur := seq
			seq++
			h := HashKey(kv[0])
			if sb.ShardOf(h) != w {
				continue
			}
			if err := sb.Upsert(w, cur, h, kv[0], kv[1], shardMerge); err != nil {
				t.Fatalf("sharded upsert(%q): %v", kv[0], err)
			}
		}
	}
}

// fanGo is a Fanout that runs every worker on its own goroutine.
func fanGo(n int, fn func(w int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// kmvOracle is the naive convert reference: a Go map of each key's values
// in arrival order plus the keys' first-appearance order.
type kmvOracle struct {
	order []string
	vals  map[string][]string
}

func newKMVOracle(stream [][2][]byte) *kmvOracle {
	o := &kmvOracle{vals: map[string][]string{}}
	for _, kv := range stream {
		k := string(kv[0])
		if _, seen := o.vals[k]; !seen {
			o.order = append(o.order, k)
		}
		o.vals[k] = append(o.vals[k], string(kv[1]))
	}
	return o
}

// bytes returns the payload bytes a KMV container of hint holds for the
// oracle's records, each sized exactly.
func (o *kmvOracle) bytes(hint Hint) int64 {
	c := &KMVC{hint: hint}
	var n int64
	for _, k := range o.order {
		valBytes := 0
		for _, v := range o.vals[k] {
			valBytes += len(v)
		}
		n += int64(c.recordSize(len(k), len(o.vals[k]), valBytes))
	}
	return n
}

func collectBucket(t testing.TB, scan func(func(k, v []byte) error) error) [][2]string {
	t.Helper()
	var out [][2]string
	if err := scan(func(k, v []byte) error {
		out = append(out, [2]string{string(k), string(v)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardedBucketMatchesSerial pins the core contract: for any worker
// count, the sequence-merged scan equals a single serial bucket's insertion
// order, entry for entry and byte for byte.
func TestShardedBucketMatchesSerial(t *testing.T) {
	stream := make([][2][]byte, 0, 400)
	for i := 0; i < 400; i++ {
		k := []byte(fmt.Sprintf("key-%d", i%97))
		v := []byte(fmt.Sprintf("val-%d", i%13))
		stream = append(stream, [2][]byte{k, v})
	}

	arena := mem.NewArena(0)
	ref, err := NewBucket(arena, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range stream {
		if err := ref.Upsert(kv[0], kv[1], shardMerge); err != nil {
			t.Fatal(err)
		}
	}
	want := collectBucket(t, ref.Scan)

	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sb, err := NewShardedBucket(nil, arena, 512, workers)
			if err != nil {
				t.Fatal(err)
			}
			defer sb.Free()
			feedSharded(t, sb, stream)
			if sb.Len() != ref.Len() {
				t.Fatalf("sharded Len %d, serial %d", sb.Len(), ref.Len())
			}
			got := collectBucket(t, sb.Scan)
			if len(got) != len(want) {
				t.Fatalf("sharded scan yields %d entries, serial %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("entry %d: sharded (%q, %q), serial (%q, %q)",
						i, got[i][0], got[i][1], want[i][0], want[i][1])
				}
			}
			for _, kv := range stream[:50] {
				sv, ok := sb.Get(HashKey(kv[0]), kv[0])
				rv, rok := ref.Get(kv[0])
				if ok != rok || !bytes.Equal(sv, rv) {
					t.Fatalf("Get(%q): sharded (%q, %v), serial (%q, %v)", kv[0], sv, ok, rv, rok)
				}
			}
		})
	}

	ref.Free()
	used := arena.Used()
	if used != 0 {
		t.Fatalf("arena holds %d bytes after Free (leak)", used)
	}
}

// TestConvertParallelMatchesSerial proves the sharded two-pass convert
// produces the KMV container a naive map-based grouping predicts — keys in
// first-appearance order, values in arrival order, every record sized
// exactly — for several worker counts and page sizes, and that each shard
// is charged its keys' encoded bytes.
func TestConvertParallelMatchesSerial(t *testing.T) {
	type rec struct {
		key  string
		vals []string
	}
	collect := func(kmv *KMVC) []rec {
		var out []rec
		if err := kmv.Scan(func(key []byte, vals *ValueIter) error {
			r := rec{key: string(key)}
			for v, ok := vals.Next(); ok; v, ok = vals.Next() {
				r.vals = append(r.vals, string(v))
			}
			out = append(out, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	var stream [][2][]byte
	for i := 0; i < 500; i++ {
		stream = append(stream, [2][]byte{[]byte(fmt.Sprintf("w%d", i%83)), []byte(fmt.Sprintf("value-%d", i))})
	}
	build := func(arena *mem.Arena, pageSize int) *KVC {
		kvc := NewKVC(arena, pageSize, DefaultHint())
		for _, kv := range stream {
			if err := kvc.Append(kv[0], kv[1]); err != nil {
				t.Fatal(err)
			}
		}
		return kvc
	}
	oracle := newKMVOracle(stream)
	wantBytes := oracle.bytes(DefaultHint())

	for _, pageSize := range []int{256, 4096} {
		arena := mem.NewArena(0)
		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("page=%d/workers=%d", pageSize, workers), func(t *testing.T) {
				in := build(arena, pageSize)
				inBytes := in.Bytes()
				work := make([]int64, workers)
				var mu sync.Mutex
				charges := 0
				kmv, err := Convert(nil, in, arena, pageSize, DefaultHint(), workers, fanGo, func(w int, n int64) {
					mu.Lock()
					defer mu.Unlock()
					work[w] += n
					charges++
				})
				if err != nil {
					t.Fatal(err)
				}
				defer kmv.Free()
				if charges != workers {
					t.Fatalf("%d shard charges, want %d", charges, workers)
				}
				var total int64
				for _, wb := range work {
					total += wb
				}
				if total == 0 {
					t.Fatal("per-worker work accounting is empty")
				}
				if total != inBytes {
					t.Fatalf("shards charged %d bytes in all, input holds %d encoded bytes", total, inBytes)
				}
				if kmv.NumKMV() != len(oracle.order) || kmv.Bytes() != wantBytes {
					t.Fatalf("parallel KMV: %d records / %d bytes, oracle %d / %d",
						kmv.NumKMV(), kmv.Bytes(), len(oracle.order), wantBytes)
				}
				got := collect(kmv)
				for i, key := range oracle.order {
					if got[i].key != key {
						t.Fatalf("record %d key %q, oracle %q", i, got[i].key, key)
					}
					for j, want := range oracle.vals[key] {
						if got[i].vals[j] != want {
							t.Fatalf("record %d value %d: %q, oracle %q", i, j, got[i].vals[j], want)
						}
					}
				}
			})
		}
		if arena.Used() != 0 {
			t.Fatalf("page=%d: arena holds %d bytes (leak)", pageSize, arena.Used())
		}
	}
}

// FuzzShardMerge feeds arbitrary KV streams through the sharded bucket and
// the sharded convert, checking the bucket against a single Bucket and the
// convert against the naive map oracle, for exact ordering and KMV sizing.
func FuzzShardMerge(f *testing.F) {
	f.Add([]byte("the quick brown fox the lazy dog the end"), uint8(4))
	f.Add([]byte("aaaa bb c dddddd bb aaaa"), uint8(2))
	f.Add([]byte{1, 2, 3, 0, 255, 254, 0, 9, 17, 17, 17, 3, 3}, uint8(7))
	f.Add([]byte(""), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, rawWorkers uint8) {
		workers := int(rawWorkers)%8 + 1
		// Slice the fuzz input into a KV stream (keys 1..8 bytes, values
		// 0..8 bytes) — duplicates across the stream are what exercise the
		// merge order.
		var stream [][2][]byte
		for pos := 0; pos+2 <= len(data) && len(stream) < 64; {
			klen := int(data[pos]%8) + 1
			vlen := int(data[pos+1] % 8)
			pos += 2
			if pos+klen+vlen > len(data) {
				break
			}
			stream = append(stream, [2][]byte{
				append([]byte{}, data[pos:pos+klen]...),
				append([]byte{}, data[pos+klen:pos+klen+vlen]...),
			})
			pos += klen + vlen
		}

		arena := mem.NewArena(0)

		// Bucket order equivalence.
		ref, err := NewBucket(arena, 256)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range stream {
			if err := ref.Upsert(kv[0], kv[1], shardMerge); err != nil {
				t.Fatal(err)
			}
		}
		sb, err := NewShardedBucket(nil, arena, 256, workers)
		if err != nil {
			t.Fatal(err)
		}
		feedSharded(t, sb, stream)
		want := collectBucket(t, ref.Scan)
		got := collectBucket(t, sb.Scan)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: sharded scan yields %d entries, serial %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d entry %d: sharded (%q, %q), serial (%q, %q)",
					workers, i, got[i][0], got[i][1], want[i][0], want[i][1])
			}
		}
		ref.Free()
		sb.Free()

		// Convert equivalence: exact record order, value order, and sizing.
		hint := Hint{Key: Varlen(), Val: Varlen()}
		load := func() *KVC {
			kvc := NewKVC(arena, 256, hint)
			for _, kv := range stream {
				if err := kvc.Append(kv[0], kv[1]); err != nil {
					t.Fatal(err)
				}
			}
			return kvc
		}
		oracle := newKMVOracle(stream)
		parallel, err := Convert(nil, load(), arena, 256, hint, workers, fanGo, nil)
		if err != nil {
			t.Fatal(err)
		}
		if parallel.NumKMV() != len(oracle.order) || parallel.Bytes() != oracle.bytes(hint) {
			t.Fatalf("workers=%d: parallel KMV %d records / %d bytes, oracle %d / %d",
				workers, parallel.NumKMV(), parallel.Bytes(), len(oracle.order), oracle.bytes(hint))
		}
		type entry struct{ key, vals string }
		var wantKMV []entry
		for _, k := range oracle.order {
			e := entry{key: k}
			for _, v := range oracle.vals[k] {
				e.vals += fmt.Sprintf("%d:%q,", len(v), v)
			}
			wantKMV = append(wantKMV, e)
		}
		var gotKMV []entry
		if err := parallel.Scan(func(key []byte, vals *ValueIter) error {
			e := entry{key: string(key)}
			for v, ok := vals.Next(); ok; v, ok = vals.Next() {
				e.vals += fmt.Sprintf("%d:%q,", len(v), v)
			}
			gotKMV = append(gotKMV, e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range wantKMV {
			if wantKMV[i] != gotKMV[i] {
				t.Fatalf("workers=%d KMV record %d: parallel %+v, oracle %+v", workers, i, gotKMV[i], wantKMV[i])
			}
		}
		parallel.Free()
		if arena.Used() != 0 {
			t.Fatalf("arena holds %d bytes after Free (leak)", arena.Used())
		}
	})
}
