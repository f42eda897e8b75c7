package mimir_test

// TestShuffleAllocs pins the allocation behavior of the shuffle hot path
// with testing.AllocsPerRun:
//
//   - the codec fast paths (Encode into a reused buffer, Decode, Measure)
//     allocate NOTHING per KV — these run once per KV on the map and reduce
//     sides, so any per-call allocation multiplies by the dataset;
//   - container chunk ingestion (AppendChunk + Drain) amortizes to a small
//     constant per chunk (page-pool bookkeeping), not per KV;
//   - the TCP send path costs a small constant per FRAME (replay-ledger
//     append, pooled-buffer boxing, one Frame header on the receive side),
//     independent of payload size;
//   - a whole in-process job — batched map, exchange, partial reduction or
//     convert + reduce — costs a small constant per JOB at every worker
//     count: the worker pool is long-lived and the map staging is reused,
//     so no fan-out allocates per KV or per batch.
//
// The pins run only without the race detector: -race instruments every
// allocation and makes sync.Pool deliberately drop items, so AllocsPerRun
// measures the instrumentation, not the code (see raceEnabled).

import (
	"encoding/binary"
	"fmt"
	"testing"

	"mimir"
	"mimir/internal/kvbuf"
)

func TestShuffleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun figures are meaningless under the race detector")
	}
	hint := shuffleHint()
	key := []byte("word00ffxxx")
	val := mimir.Uint64Bytes(1)
	enc, err := hint.Encode(nil, key, val)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("codec/encode", func(t *testing.T) {
		dst := make([]byte, 0, 64)
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := hint.Encode(dst[:0], key, val); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Encode into reused buffer: %v allocs/KV, want 0", n)
		}
	})

	t.Run("codec/decode", func(t *testing.T) {
		if n := testing.AllocsPerRun(1000, func() {
			if _, _, _, err := hint.Decode(enc); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Decode: %v allocs/KV, want 0", n)
		}
	})

	t.Run("codec/measure", func(t *testing.T) {
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := hint.Measure(enc); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Measure: %v allocs/KV, want 0", n)
		}
	})

	t.Run("container/append-chunk", func(t *testing.T) {
		// A realistic receive chunk: several thousand KVs, a few pages worth.
		const chunkKVs = 4096
		var chunk []byte
		for i := 0; i < chunkKVs; i++ {
			chunk, err = hint.Encode(chunk, []byte(fmt.Sprintf("word%04x", i%shuffleVocab)), val)
			if err != nil {
				t.Fatal(err)
			}
		}
		arena := mimir.NewArena(0)
		kvc := kvbuf.NewKVC(arena, 64<<10, hint)
		sink := func(k, v []byte) error { return nil }
		// Warm the page pool so the measurement sees steady state.
		if _, err := kvc.AppendChunk(chunk); err != nil {
			t.Fatal(err)
		}
		if err := kvc.Drain(sink); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(50, func() {
			if _, err := kvc.AppendChunk(chunk); err != nil {
				t.Fatal(err)
			}
			if err := kvc.Drain(sink); err != nil {
				t.Fatal(err)
			}
		})
		// Page-pool round trips cost ~1 boxing alloc per page put plus the
		// pages-slice growth; with ~70KB across 2 pages that's a handful per
		// CHUNK and ~0 per KV.
		if n > 16 {
			t.Errorf("AppendChunk+Drain cycle: %v allocs/chunk, want <= 16", n)
		}
		if perKV := n / chunkKVs; perKV > 0.01 {
			t.Errorf("AppendChunk+Drain: %v allocs/KV, want <= 0.01", perKV)
		}
		t.Logf("AppendChunk+Drain: %.1f allocs per %d-KV chunk (%.5f/KV)", n, chunkKVs, n/chunkKVs)
	})

	t.Run("tcp/send-frame", func(t *testing.T) {
		trs, err := shuffleMesh(2, false)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			for _, tr := range trs {
				tr.Close()
			}
		}()
		ep0, ep1 := trs[0].Endpoint(0), trs[1].Endpoint(1)
		recycler, _ := ep1.(interface{ Recycle(b []byte) })
		payload := make([]byte, 64<<10) // 64 KiB frame: per-KV share vanishes
		for i := range payload {
			payload[i] = byte(i)
		}
		roundTrip := func() {
			if err := ep0.Send(1, 7, payload, 0); err != nil {
				t.Fatal(err)
			}
			m, err := ep1.Recv(0, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Data) != len(payload) {
				t.Fatalf("got %d bytes, want %d", len(m.Data), len(payload))
			}
			if recycler != nil {
				recycler.Recycle(m.Data)
			}
		}
		roundTrip() // warm the frame pools and the replay ledger
		n := testing.AllocsPerRun(100, roundTrip)
		// One framed send costs: a pooled replay buffer (boxing on recycle),
		// the ledger append, the receive-side Frame header + pooled body, the
		// queue node, and the ack round — each a fixed cost per frame,
		// independent of the 64 KiB payload.
		const maxPerFrame = 24
		if n > maxPerFrame {
			t.Errorf("TCP send/recv round trip: %v allocs/frame, want <= %d", n, maxPerFrame)
		}
		t.Logf("TCP send/recv: %.1f allocs per 64KiB frame", n)
	})

	recs := shuffleWords(0, shuffleKVsPerRank)
	one := mimir.Uint64Bytes(1)
	mapFn := func(rec mimir.Record, e mimir.Emitter) error { return e.Emit(rec.Val, one) }
	firstValue := func(k []byte, vals *mimir.ValueIter, e mimir.Emitter) error {
		v, _ := vals.Next()
		return e.Emit(k, v)
	}
	sum := func(_, a, b []byte) ([]byte, error) {
		binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
		return a, nil
	}
	for _, shape := range []string{"reduce", "pr"} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("job/%s/workers=%d", shape, workers), func(t *testing.T) {
				world := mimir.NewWorld(1)
				arena := mimir.NewArena(0)
				run := func() {
					err := world.Run(func(c *mimir.Comm) error {
						cfg := mimir.Config{Arena: arena, CommBuf: 3 << 20, Hint: hint, Workers: workers}
						reduceFn := firstValue
						if shape == "pr" {
							cfg.PartialReduce, reduceFn = sum, nil
						}
						out, err := mimir.NewJob(c, cfg).Run(mimir.SliceInput(recs), mapFn, reduceFn)
						if err != nil {
							return err
						}
						out.Free()
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				run() // warm the page pool
				n := testing.AllocsPerRun(5, run)
				// Per job: the pool's goroutines, staging growth, the
				// containers' page tables — a few hundred allocations over
				// 64Ki KVs, where one allocation per batch would add 0.002.
				if perKV := n / shuffleKVsPerRank; perKV > 0.02 {
					t.Errorf("whole %s job at Workers=%d: %v allocs/KV, want <= 0.02", shape, workers, perKV)
				}
				t.Logf("whole %s job at Workers=%d: %.0f allocs per %d KVs", shape, workers, n, shuffleKVsPerRank)
			})
		}
	}
}
