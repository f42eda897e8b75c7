package core

// The worker-pool determinism battery: Config.Workers may reorder work but
// never results, so every test here compares raw output bytes — not
// multisets — between a serial run and pool runs across worker counts,
// page sizes, out-of-core policies, and the optimization ladder.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/pfs"
	"mimir/internal/spill"
)

// wcReduceText is wcReduce with a decimal-text sum, so persisted golden
// output is printable.
func wcReduceText(key []byte, vals *kvbuf.ValueIter, emit Emitter) error {
	var sum uint64
	for v, ok := vals.Next(); ok; v, ok = vals.Next() {
		sum += BytesUint64(v)
	}
	return emit.Emit(key, []byte(fmt.Sprintf("%d", sum)))
}

// rawOutput flattens one rank's output in Scan order into length-prefixed
// bytes: the byte-exact observable every determinism check compares.
func rawOutput(out *Output) ([]byte, error) {
	var buf []byte
	err := out.Scan(func(k, v []byte) error {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(k)))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(v)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, k...)
		buf = append(buf, v...)
		return nil
	})
	return buf, err
}

// runWCRaw executes WordCount on p ranks over an arena of the given
// capacity (0 = unlimited) and returns each rank's raw output bytes plus
// its Stats. A spill file system and group are always wired in so modify
// can flip OutOfCore freely. Job errors are returned, not fataled, so
// property tests can require error parity between serial and parallel.
func runWCRaw(t testing.TB, p int, lines []string, capacity int64, modify func(*Config)) ([][]byte, []Stats, error) {
	t.Helper()
	w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
	arena := mem.NewArena(capacity)
	spillFS := pfs.New(pfs.Config{Bandwidth: 1 << 30, Latency: 1e-4})
	group := spill.NewGroup()
	outs := make([][]byte, p)
	stats := make([]Stats, p)
	err := w.Run(func(c *mpi.Comm) error {
		cfg := Config{Arena: arena, Workers: 1, SpillFS: spillFS, SpillGroup: group}
		if modify != nil {
			modify(&cfg)
		}
		job := NewJob(c, cfg)
		var mine []Record
		for i, l := range lines {
			if i%p == c.Rank() {
				mine = append(mine, Record{Val: []byte(l)})
			}
		}
		out, err := job.Run(SliceInput(mine), wcMap, wcReduce)
		if err != nil {
			return err
		}
		defer out.Free()
		raw, err := rawOutput(out)
		if err != nil {
			return err
		}
		outs[c.Rank()] = raw
		stats[c.Rank()] = out.Stats
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if used := arena.Used(); used != 0 {
		t.Fatalf("arena used %d after job, want 0 (buffer leak)", used)
	}
	return outs, stats, nil
}

// propLines generates seeded WordCount input with a bounded vocabulary and
// occasional empty/long lines.
func propLines(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	lines := make([]string, n)
	for i := range lines {
		words := rng.Intn(12)
		var b []byte
		for j := 0; j < words; j++ {
			if j > 0 {
				b = append(b, ' ')
			}
			b = append(b, fmt.Sprintf("w%03d", rng.Intn(200))...)
		}
		lines[i] = string(b)
	}
	return lines
}

// TestParallelMatchesSerialProperty is the tentpole property: for random
// seeds x worker counts {2,3,8} x page sizes x out-of-core policies x the
// optimization ladder, the pool run's output bytes equal the serial run's
// on every rank. Runs under -race, which also proofs the fan-outs against
// data races.
func TestParallelMatchesSerialProperty(t *testing.T) {
	const p = 4
	workerCounts := []int{1, 2, 3, 8}
	pageSizes := []int{512, 1 << 10, 4 << 10}
	policies := []OutOfCore{Error, SpillWhenNeeded, SpillAlways}
	modes := []func(*Config){
		nil,
		func(cfg *Config) { cfg.PartialReduce = wcCombine },
		func(cfg *Config) { cfg.Combiner = wcCombine; cfg.CombinerBudget = 8 << 10 },
		func(cfg *Config) {
			cfg.Hint = kvbuf.Hint{Key: kvbuf.StrZ(), Val: kvbuf.Fixed(8)}
			cfg.PartialReduce = wcCombine
			cfg.SerialAggregate = true
		},
	}

	f := func(seed int64, wsel, psel, osel, msel uint8) bool {
		workers := workerCounts[int(wsel)%len(workerCounts)]
		pageSize := pageSizes[int(psel)%len(pageSizes)]
		policy := policies[int(osel)%len(policies)]
		mode := modes[int(msel)%len(modes)]
		// Spill policies get a bounded arena so eviction actually happens;
		// Error keeps it unlimited so the run cannot fail.
		var capacity int64
		if policy != Error {
			capacity = 192 << 10
		}
		lines := propLines(seed, 400)
		apply := func(w int) func(*Config) {
			return func(cfg *Config) {
				cfg.PageSize = pageSize
				cfg.CommBuf = 4 << 10
				cfg.OutOfCore = policy
				if mode != nil {
					mode(cfg)
				}
				cfg.Workers = w
			}
		}
		want, _, wantErr := runWCRaw(t, p, lines, capacity, apply(1))
		got, stats, gotErr := runWCRaw(t, p, lines, capacity, apply(workers))
		if (wantErr == nil) != (gotErr == nil) {
			t.Logf("seed=%d workers=%d page=%d policy=%v mode=%d: serial err %v, parallel err %v",
				seed, workers, pageSize, policy, msel%4, wantErr, gotErr)
			return false
		}
		if wantErr != nil {
			return true
		}
		for r := range want {
			if !bytes.Equal(got[r], want[r]) {
				t.Logf("seed=%d workers=%d page=%d policy=%v mode=%d: rank %d output diverges (%d vs %d bytes)",
					seed, workers, pageSize, policy, msel%4, r, len(got[r]), len(want[r]))
				return false
			}
		}
		for r, st := range stats {
			if st.Workers != workers {
				t.Logf("rank %d Stats.Workers = %d, want %d", r, st.Workers, workers)
				return false
			}
			for _, eff := range []float64{st.ParEff.Map, st.ParEff.Aggregate, st.ParEff.Convert, st.ParEff.Reduce} {
				if eff <= 0 || eff > 1+1e-9 {
					t.Logf("rank %d ParEff out of range: %+v", r, st.ParEff)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

// TestWorkersGoldenOutputOrder pins the exact Output iteration and Persist
// byte stream of a pool run. The literal below was produced by the serial
// path; a pool run must reproduce it byte for byte, so any future change
// that reorders parallel output — however plausibly — fails loudly here.
func TestWorkersGoldenOutputOrder(t *testing.T) {
	const golden = "== rank 0 ==\n" +
		"the\t5\nquick\t1\nfox\t2\njumps\t1\npack\t1\nbox\t1\njugs\t1\nbarks\t1\n" +
		"and\t1\nboxing\t1\n" +
		"== rank 1 ==\n" +
		"brown\t1\nover\t1\nlazy\t1\ndog\t2\nmy\t1\nwith\t1\nfive\t2\ndozen\t1\n" +
		"liquor\t1\nruns\t1\nwizards\t1\njump\t1\nquickly\t1\n"

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const p = 2
			w := mpi.NewWorld(mpi.Config{Size: p, Net: testNet()})
			arena := mem.NewArena(0)
			outFS := pfs.New(pfs.Config{Bandwidth: 1 << 30, Latency: 1e-4})
			var mu sync.Mutex
			persisted := make([]string, p)
			err := w.Run(func(c *mpi.Comm) error {
				job := NewJob(c, Config{Arena: arena, PageSize: 512, Workers: workers})
				var mine []Record
				for i, l := range testText {
					if i%p == c.Rank() {
						mine = append(mine, Record{Val: []byte(l)})
					}
				}
				out, err := job.Run(SliceInput(mine), wcMap, wcReduceText)
				if err != nil {
					return err
				}
				defer out.Free()
				name := fmt.Sprintf("out/rank%d", c.Rank())
				if err := out.Persist(outFS, c.Clock(), name); err != nil {
					return err
				}
				data, err := outFS.ReadAll(c.Clock(), name)
				if err != nil {
					return err
				}
				mu.Lock()
				defer mu.Unlock()
				persisted[c.Rank()] = string(data)
				return nil
			})
			if err != nil {
				t.Fatalf("world: %v", err)
			}
			var got string
			for r, s := range persisted {
				got += fmt.Sprintf("== rank %d ==\n%s", r, s)
			}
			if got != golden {
				t.Fatalf("persisted output diverges from golden:\ngot:\n%s\nwant:\n%s", got, golden)
			}
		})
	}
}

// TestWorkersSpillCheckpointResume drives the full durability stack under
// the pool: a spill-always job with checkpointing runs twice — the second
// run restores from the checkpoint — at Workers 1 and 8, and all four runs
// must produce identical output bytes.
func TestWorkersSpillCheckpointResume(t *testing.T) {
	const p = 4
	const capacity = 192 << 10
	lines := spillLines(3000)

	run := func(workers int, ck *Checkpoint) ([][]byte, []Stats, error) {
		return runWCRaw(t, p, lines, capacity, func(cfg *Config) {
			cfg.PageSize = 1 << 10
			cfg.CommBuf = 4 << 10
			cfg.OutOfCore = SpillAlways
			cfg.Checkpoint = ck
			cfg.Workers = workers
		})
	}

	want, _, err := run(1, &Checkpoint{FS: pfs.New(pfs.Config{}), Name: "serial"})
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}

	ckFS := pfs.New(pfs.Config{})
	ck := &Checkpoint{FS: ckFS, Name: "pool"}
	first, stats, err := run(8, ck)
	if err != nil {
		t.Fatalf("pool run: %v", err)
	}
	if stats[0].RestoredFromCheckpoint {
		t.Fatal("first pool run claims to have restored from a checkpoint")
	}
	if !ck.Exists(p) {
		t.Fatal("first pool run left no checkpoint")
	}
	second, stats, err := run(8, ck)
	if err != nil {
		t.Fatalf("pool resume run: %v", err)
	}
	for r := range want {
		if !bytes.Equal(first[r], want[r]) {
			t.Errorf("rank %d: pool output diverges from serial (%d vs %d bytes)", r, len(first[r]), len(want[r]))
		}
		if !bytes.Equal(second[r], want[r]) {
			t.Errorf("rank %d: pool resume output diverges from serial (%d vs %d bytes)", r, len(second[r]), len(want[r]))
		}
		if !stats[r].RestoredFromCheckpoint {
			t.Errorf("rank %d did not restore from the checkpoint", r)
		}
	}
}

// TestWorkersCheckpointPartialReduce covers the sharded-bucket checkpoint
// round trip: a partial-reduction job at Workers=8 saves its (sharded)
// post-aggregate state, and the resumed run — which restores into the
// sharded form — matches the serial run's bytes.
func TestWorkersCheckpointPartialReduce(t *testing.T) {
	const p = 4
	lines := propLines(7, 500)

	run := func(workers int, ck *Checkpoint) ([][]byte, []Stats, error) {
		return runWCRaw(t, p, lines, 0, func(cfg *Config) {
			cfg.PageSize = 1 << 10
			cfg.PartialReduce = wcCombine
			cfg.Checkpoint = ck
			cfg.Workers = workers
		})
	}

	want, _, err := run(1, &Checkpoint{FS: pfs.New(pfs.Config{}), Name: "serial"})
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	ck := &Checkpoint{FS: pfs.New(pfs.Config{}), Name: "pr"}
	first, _, err := run(8, ck)
	if err != nil {
		t.Fatalf("pool run: %v", err)
	}
	second, stats, err := run(8, ck)
	if err != nil {
		t.Fatalf("pool resume run: %v", err)
	}
	for r := range want {
		if !bytes.Equal(first[r], want[r]) {
			t.Errorf("rank %d: pool PR output diverges from serial", r)
		}
		if !bytes.Equal(second[r], want[r]) {
			t.Errorf("rank %d: restored PR output diverges from serial", r)
		}
		if !stats[r].RestoredFromCheckpoint {
			t.Errorf("rank %d did not restore from the checkpoint", r)
		}
	}
}

// TestWorkersSimtimeMaxRule checks the cost model: with nonzero costs, a
// pool run's simulated time is no longer than serial (max over workers
// never exceeds the sum), phase efficiencies land in (0, 1], at 8 workers
// the map phase shows a real speedup over serial, and convert never shows
// a superlinear one.
func TestWorkersSimtimeMaxRule(t *testing.T) {
	const p = 2
	lines := propLines(3, 600)
	costs := Costs{MapPerByte: 1e-7, KVPerByte: 3e-7, PerRecord: 1e-6, ReducePerByte: 1e-7}

	phase := func(workers int) (PhaseTimes, PhaseTimes) {
		_, stats, err := runWCRaw(t, p, lines, 0, func(cfg *Config) {
			cfg.Costs = costs
			cfg.Workers = workers
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return stats[0].Phases, stats[0].ParEff
	}

	serial, _ := phase(1)
	par, eff := phase(8)
	if par.Map >= serial.Map {
		t.Errorf("map phase at 8 workers took %.6fs, serial %.6fs — no speedup", par.Map, serial.Map)
	}
	if par.Total() > serial.Total()+1e-9 {
		t.Errorf("pool total %.6fs exceeds serial %.6fs", par.Total(), serial.Total())
	}
	if eff.Map <= 0 || eff.Map > 1 {
		t.Errorf("map efficiency %.3f out of (0, 1]", eff.Map)
	}
	if speedup := serial.Map / par.Map; speedup < 2 {
		t.Errorf("map speedup at 8 workers is %.2fx, want >= 2x", speedup)
	}
	// Convert work is a shard's encoded bytes under every worker count, so
	// W workers can at best split the serial charge evenly, never beat it.
	// The one-rank runs keep every key hash in play for the shards.
	if par.Convert < serial.Convert/8 {
		t.Errorf("convert at 8 workers took %.6fs, below serial/8 = %.6fs", par.Convert, serial.Convert/8)
	}
	convert := func(workers int) float64 {
		_, stats, err := runWCRaw(t, 1, lines, 0, func(cfg *Config) {
			cfg.Costs = costs
			cfg.Workers = workers
		})
		if err != nil {
			t.Fatalf("1 rank, workers=%d: %v", workers, err)
		}
		return stats[0].Phases.Convert
	}
	one := convert(1)
	for _, w := range []int{2, 8} {
		if c := convert(w); c < one/float64(w) {
			t.Errorf("1 rank: convert at %d workers took %.6fs, below serial/%d = %.6fs — superlinear",
				w, c, w, one/float64(w))
		}
	}
}

// TestWorkersDefault pins the Config default: 0 resolves to GOMAXPROCS and
// 1 stays serial.
func TestWorkersDefault(t *testing.T) {
	if got := (Config{}).withDefaults().Workers; got < 1 {
		t.Fatalf("defaulted Workers = %d, want >= 1", got)
	}
	if got := (Config{Workers: 1}).withDefaults().Workers; got != 1 {
		t.Fatalf("Workers: 1 resolved to %d", got)
	}
	if got := (Config{Workers: 6}).withDefaults().Workers; got != 6 {
		t.Fatalf("Workers: 6 resolved to %d", got)
	}
}
