package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"mimir/internal/core"
	"mimir/internal/driver"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/pfs"
	"mimir/internal/platform"
	"mimir/internal/workloads"
)

// spec is one workload: a job kind at a fixed size and engine layout.
// Workers is always explicit, because 0 means GOMAXPROCS; ranks x workers
// never exceeds two cores.
type spec struct {
	name    string
	kind    string // driver job kind
	ranks   int
	tcp     bool
	workers int
	hint    bool
	pr      bool
	// memCap, when set, caps each rank's arena, and the engine spills
	// (SpillWhenNeeded) instead of failing at the cap.
	memCap  int64
	bytes   int64 // wordcount corpus bytes
	scale   int   // pagerank: 2^scale vertices
	edges   int   // pagerank: edges per vertex
	points  int64 // kmeans points
	k, dims int
	rounds  int // iterative jobs: round cap (0 = the job's default)
	seed    uint64
	warmup  bool
	// pin is the canonical output digest at the default seed.
	pin string
}

const (
	defaultSeed = 42
	// warmDiv shrinks a workload for the warm-up job that set-up runs.
	warmDiv = 8
	// jobTimeout fails a job that has not finished. A healthy job takes
	// 1.5-5 s on a 2-core host; k-means past its spill cliff (a 32 MiB cap
	// instead of 48 MiB) did not finish within 40 s, so a spill regression
	// into thrashing shows up as failed jobs, not as a hung run.
	jobTimeout = 30 * time.Second
)

var specs = []spec{
	{
		// The engine's parallel path does nearly all the work: staged map,
		// sharded partial-reduce bucket and the worker fan-out. Exchange is
		// a self-send.
		name: "wc-par", kind: driver.JobWordCount, ranks: 1, workers: 2,
		hint: true, pr: true, bytes: 32 << 20,
		pin: "6aa34e6009a31162f952b26706eac180b482c65637485e3205db1fefe2f6f0ad",
	},
	{
		// Two OS processes over loopback TCP: exchange and the per-round
		// barriers dominate, and the serial partial-reduce bucket runs on
		// every round.
		name: "pagerank-tcp", kind: driver.JobPageRank, ranks: 2, tcp: true, workers: 1,
		hint: true, pr: true, scale: 15, edges: 16,
		pin: "89fe051ea8cf9601069a1043a0b85cab0d1e8f9d9e59950220cba9f3dc1c5f36",
	},
	{
		// Spill eviction/restore and the full two-pass convert + reduce
		// path. The 48 MiB cap is two thirds of the job's uncapped arena
		// peak (72 MiB) and 1.5x above the thrash cliff (32 MiB ran past
		// 40 s). One rank, because with two the seed decides how the 8
		// clusters split between the ranks: uncapped per-rank peaks ran
		// from 36/36 to 9/63 MiB, a fixed per-rank cap failed or thrashed
		// on the lopsided seeds, and a shared arena made the spill counts
		// depend on thread timing. Rounds to convergence range from 2 to 20
		// across seeds, so the job is fixed at two Lloyd rounds (seed 42
		// converges in two) to give every seed the same work.
		name: "kmeans-spill", kind: driver.JobKMeans, ranks: 1, workers: 1,
		hint: true, memCap: 48 << 20, points: 1 << 20, k: 8, dims: 3, rounds: 2,
		pin: "e171618fb47688db5e09d73bc5895bddddffc244b1ad1ee3f4c663e065de55f4",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// warm is the workload shrunk for set-up's warm-up job.
func (s spec) warm() spec {
	s.bytes /= warmDiv
	s.points /= warmDiv
	s.scale -= 3 // 2^3 = warmDiv
	s.warmup = true
	return s
}

// plat supplies the simulated cost model for the in-process worlds; it
// changes only the simulated clocks, never what a job computes.
var plat = platform.Comet()

// jobResult is what one job reports on the process hosting rank 0. Counts
// are summed over this process's ranks.
type jobResult struct {
	digest    string
	local     []int // the ranks this process hosts
	stats     workloads.StageStats
	arenaPeak int64 // largest arena peak among this process's ranks
	rounds    int
	stages    int
	simSec    float64
}

// runJob runs one job of s on every local rank of w and returns the digest
// of the gathered canonical output. tr, when non-nil, traces the job.
func runJob(w *mpi.World, s spec, tr *tracer) (jobResult, error) {
	local := w.LocalRanks()
	perRank := make([]jobResult, w.Size())
	var digest string
	var spillFS *pfs.FS
	if s.memCap > 0 {
		spillFS = pfs.New(plat.SpillFS)
	}
	err := w.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		if tr != nil {
			tr.beginJob(rank)
		}
		arena := mem.NewArena(s.memCap)
		eng := workloads.NewMimirEngine(c, arena)
		eng.Workers = s.workers
		eng.Costs = plat.Costs()
		if s.memCap > 0 {
			eng.OutOfCore = core.SpillWhenNeeded
			eng.SpillFS = spillFS
		}
		var e workloads.Engine = eng
		mr := workloads.MultiRound{}
		if tr != nil {
			mr.OnRound = tr.onRound(rank)
			// PageRank type-asserts *MimirEngine to charge its resident
			// graph to the arena, so it is timed through the transport and
			// OnRound only.
			if s.kind != driver.JobPageRank {
				e = &tracedEngine{Engine: eng, t: tr, rank: rank}
			}
		}
		var mine bytes.Buffer
		res := &perRank[rank]
		switch s.kind {
		case driver.JobWordCount:
			opts := workloads.StageOpts{}
			if s.hint {
				opts.Hint = workloads.WCHint()
			}
			if s.pr {
				opts.PartialReduce = workloads.WordCountCombine
			}
			input := workloads.TextInput(nil, c.Clock(), workloads.Wikipedia, s.seed, s.bytes, rank, c.Size())
			st, err := e.RunStage(opts, input, workloads.WordCountMap, workloads.WordCountReduce,
				func(k, v []byte) error {
					fmt.Fprintf(&mine, "%s %d\n", k, core.BytesUint64(v))
					return nil
				})
			if err != nil {
				return err
			}
			res.stats, res.stages = st, 1
		case driver.JobPageRank:
			opts := workloads.StageOpts{}
			if s.hint {
				opts.Hint = workloads.PageRankHint()
			}
			if s.pr {
				opts.PartialReduce = workloads.Int64VecAdd
			}
			cfg := workloads.PageRankConfig{Scale: s.scale, EdgeFactor: s.edges, Seed: s.seed}
			pr, err := workloads.RunPageRank(e, nil, cfg, opts, mr, func(v uint64, score int64) error {
				fmt.Fprintf(&mine, "%016x %d\n", v, score)
				return nil
			})
			if err != nil {
				return err
			}
			res.stats, res.rounds, res.stages = pr.Stats, pr.Rounds, pr.Rounds+1
		case driver.JobKMeans:
			cfg := workloads.KMeansConfig{Points: s.points, K: s.k, Dims: s.dims, Seed: s.seed, MaxRounds: s.rounds}
			opts := workloads.StageOpts{}
			if s.hint {
				opts.Hint = workloads.KMeansHint(cfg)
			}
			if s.pr {
				opts.PartialReduce = workloads.Int64VecAdd
			}
			km, err := workloads.RunKMeans(e, nil, cfg, opts, mr)
			if err != nil {
				return err
			}
			if rank == 0 {
				for ci, cent := range km.Centroids {
					fmt.Fprintf(&mine, "%04d", ci)
					for _, x := range cent {
						fmt.Fprintf(&mine, " %d", x)
					}
					fmt.Fprintf(&mine, " n=%d\n", km.Counts[ci])
				}
			}
			res.stats, res.rounds, res.stages = km.Stats, km.Rounds, km.Rounds
		default:
			return fmt.Errorf("unknown job kind %q", s.kind)
		}
		res.arenaPeak = arena.Peak()
		var outStart int64
		if tr != nil {
			outStart = tr.outputBegin(rank)
		}
		gathered, err := c.Gatherv(mine.Bytes(), 0)
		if err != nil {
			return err
		}
		if rank == 0 {
			digest = digestOf(gathered)
		}
		if tr != nil {
			tr.outputEnd(rank, outStart)
			tr.endJob(rank)
		}
		return nil
	})
	if err != nil {
		return jobResult{}, err
	}
	out := jobResult{digest: digest, local: local, simSec: w.MaxTime()}
	for _, r := range local {
		p := perRank[r]
		out.stats = addStats(out.stats, p.stats)
		out.arenaPeak = max(out.arenaPeak, p.arenaPeak)
		out.rounds, out.stages = p.rounds, p.stages
	}
	return out, nil
}

func addStats(a, b workloads.StageStats) workloads.StageStats {
	a.ShuffledBytes += b.ShuffledBytes
	a.MapOutKVs += b.MapOutKVs
	a.OverlapRounds += b.OverlapRounds
	a.SpilledBytes += b.SpilledBytes
	a.SpillEvictions += b.SpillEvictions
	a.SpillRestores += b.SpillRestores
	a.SpillRestoredByte += b.SpillRestoredByte
	a.SpillPrefetchHits += b.SpillPrefetchHits
	return a
}

// digestOf sorts the gathered output lines into the one canonical order
// (ranks hold disjoint keys in engine order) and hashes them.
func digestOf(gathered [][]byte) string {
	var lines [][]byte
	for _, buf := range gathered {
		for _, l := range bytes.Split(buf, []byte{'\n'}) {
			if len(l) > 0 {
				lines = append(lines, l)
			}
		}
	}
	sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	h := sha256.New()
	for _, l := range lines {
		h.Write(l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// referenceDigest runs s through the repository's own job driver on an
// in-process world, uncapped and serial (Workers=1): a different code path
// from the one measured, producing the same canonical lines.
func referenceDigest(s spec) (string, error) {
	w := mpi.NewWorld(mpi.Config{Size: s.ranks, Net: plat.Net})
	out, err := driver.RunJob(w, driver.JobConfig{
		Kind: s.kind, Seed: s.seed, Hint: s.hint, PR: s.pr, Workers: 1,
		Dist: workloads.Wikipedia, TotalBytes: s.bytes,
		Scale: s.scale, EdgeFactor: s.edges,
		Points: s.points, K: s.k, Dims: s.dims, MaxRounds: s.rounds,
	}, nil)
	if err != nil {
		return "", err
	}
	return digestOf([][]byte{out}), nil
}

// plainCount is the baseline: one goroutine counting the wc-par corpus into
// a map[string]uint64, with no engine. It returns the canonical digest of
// the counts.
func plainCount(s spec) (string, error) {
	counts := make(map[string]uint64)
	input := workloads.TextInput(nil, nil, workloads.Wikipedia, s.seed, s.bytes, 0, 1)
	err := input(func(rec core.Record) error {
		for _, word := range bytes.Fields(rec.Val) {
			counts[string(word)]++
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	for word, n := range counts {
		fmt.Fprintf(&out, "%s %d\n", word, n)
	}
	return digestOf([][]byte{out.Bytes()}), nil
}
