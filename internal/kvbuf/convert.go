package kvbuf

import (
	"encoding/binary"
	"fmt"

	"mimir/internal/mem"
)

// Convert turns a KV container into a KMV container with the paper's
// two-pass algorithm (Section III-A):
//
//	pass 1: scan the KVs, gathering per-unique-key value count and total
//	        value bytes in a hash bucket, then reserve every KMV record at
//	        its exact final size and position;
//	pass 2: scan the KVs again, scattering each value into its record.
//
// The input container is drained during pass 2, releasing its pages as they
// are consumed, so peak memory is (input + index) during pass 1 and roughly
// max(input, output) + index during pass 2 — never input + output + slack
// as in MR-MPI's static page model.
//
// Both passes are sharded across shards workers run by fan (which may be
// nil for one shard). Keys are partitioned by hash; every worker decodes
// the full input stream (a cheap sequential scan) and processes only its
// shard's KVs, so no two workers ever touch the same index entry or the
// same KMV record. The record reservation between the passes stays serial
// over the index's sequence-merged scan, which reproduces the one-shard
// first-appearance order: the output is byte-identical for every shard
// count, record ids included. Pass 2 releases each input page the moment
// every worker has scattered its shard's values out of it.
//
// A non-nil store registers the output KMVC's pages for out-of-core
// eviction and routes the index's arena charges through it. Both passes
// then stream: pass 1 pins the (possibly spilled) input pages one at a
// time, pass 2 scatters into pinned output pages, so residency never
// doubles even when both containers exceed the watermark. The per-key index
// stays purely in memory — it is random-access on every KV. The store is
// not safe for concurrent use, so it requires shards == 1.
//
// charge, if non-nil, is told each shard's work: the encoded bytes of the
// KVs its keys own. A lone shard owns the whole container and is told
// before pass 1; several shards are told as pass 1 finishes counting.
func Convert(store PageStore, in *KVC, arena *mem.Arena, pageSize int, hint Hint, shards int, fan Fanout, charge func(shard int, bytes int64)) (*KMVC, error) {
	if store != nil && shards > 1 {
		return nil, fmt.Errorf("kvbuf: convert on a page store needs one shard, got %d", shards)
	}
	run := func(fn func(w int) error) error {
		if shards == 1 {
			return fn(0)
		}
		return fan(shards, fn)
	}
	if charge == nil {
		charge = func(int, int64) {}
	}

	// Pass 1: per-key statistics in a hash bucket. Values are fixed 12-byte
	// records: [count uint32][valBytes uint32][recID uint32].
	idx, err := NewShardedBucket(store, arena, pageSize, shards)
	if err != nil {
		return nil, err
	}
	defer idx.Free()

	if shards == 1 {
		charge(0, in.Bytes())
	}
	err = run(func(w int) error {
		var stat [12]byte
		var seq uint64
		var work int64
		err := in.Scan(func(k, v []byte) error {
			cur := seq
			seq++
			h := HashKey(k)
			if idx.ShardOf(h) != w {
				return nil
			}
			work += int64(hint.EncodedSize(k, v))
			binary.LittleEndian.PutUint32(stat[0:], 1)
			binary.LittleEndian.PutUint32(stat[4:], uint32(len(v)))
			binary.LittleEndian.PutUint32(stat[8:], 0)
			return idx.Upsert(w, cur, h, k, stat[:], mergeStat)
		})
		if shards > 1 {
			charge(w, work)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	// Reserve all records serially in first-appearance order (deterministic
	// output).
	out := NewKMVCOn(store, arena, pageSize, hint)
	err = idx.Scan(func(k, v []byte) error {
		count := int(binary.LittleEndian.Uint32(v[0:]))
		valBytes := int(binary.LittleEndian.Uint32(v[4:]))
		id, err := out.NewRecord(k, count, valBytes)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(v[8:], uint32(id))
		return nil
	})
	if err != nil {
		out.Free()
		return nil, err
	}

	// Pass 2: scatter values page by page, draining the input: all workers
	// finish a page before it is freed, and the container is empty
	// afterwards, even on error.
	var page *mem.Page
	scatter := func(w int) error {
		return in.scanPage(page, func(k, v []byte) error {
			h := HashKey(k)
			if idx.ShardOf(h) != w {
				return nil
			}
			sv, ok := idx.Get(h, k)
			if !ok {
				return fmt.Errorf("kvbuf: convert pass 2 found unindexed key %q", k)
			}
			return out.AppendValue(int(binary.LittleEndian.Uint32(sv[8:])), v)
		})
	}
	npages := in.buf.numPages()
	in.nkv = 0
	for i := 0; i < npages; i++ {
		if err == nil {
			if page, err = in.buf.pinPage(i); err == nil {
				err = run(scatter)
				in.buf.unpinPage(i)
			}
		}
		in.buf.freePage(i)
	}
	in.buf.clear()
	if err != nil {
		out.Free()
		return nil, err
	}
	return out, nil
}

// mergeStat folds one more value into a convert pass-1 stat record.
func mergeStat(existing, incoming []byte) ([]byte, error) {
	count := binary.LittleEndian.Uint32(existing[0:]) + 1
	vb := binary.LittleEndian.Uint32(existing[4:]) + binary.LittleEndian.Uint32(incoming[4:])
	binary.LittleEndian.PutUint32(existing[0:], count)
	binary.LittleEndian.PutUint32(existing[4:], vb)
	return existing, nil
}
