// Command wallbench is the repository's wall-clock benchmark. It runs one
// workload for a fixed time, checks every job's output, and prints the
// end-to-end metrics (--trace 0) or the per-layer split (--trace 1) as the
// last line of standard output, one JSON object:
//
//	bash wallbench/run.sh --workload wc-par --seed 42 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and what
// each per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"mimir/internal/driver"
	"mimir/internal/mpi"
	"mimir/internal/transport"
)

const (
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps = 5
	// refTimeout bounds the reference run in its child process.
	refTimeout = 120 * time.Second
	// grace is how long a timed-out job gets to return after its world is
	// aborted before the run is reported without it.
	grace = 10 * time.Second
	mib   = 1 << 20
)

// Commands rank 0 broadcasts to the worker processes of a TCP world
// before each job.
const (
	cmdStop byte = iota
	cmdFull
	cmdWarm
)

var errTimeout = errors.New("job timed out")

func main() {
	log.SetFlags(0)
	log.SetPrefix("wallbench: ")
	var (
		workload = flag.String("workload", "", "workload: wc-par, pagerank-tcp or kmeans-spill")
		seed     = flag.Uint64("seed", defaultSeed, "input seed")
		seconds  = flag.Float64("seconds", 10, "how long to measure")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		outDir   = flag.String("out", ".bench_out", "directory for the traced run's span file and CPU profile")
		cpuprof  = flag.Bool("cpuprofile", false, "with --trace 1: also write a CPU profile of the measured jobs")
		ref      = flag.Bool("ref", false, "print the reference digest (uncapped, Workers=1, in-process) and exit")
	)
	flag.Parse()
	s, ok := specByName(*workload)
	if !ok {
		log.Fatalf("unknown --workload %q", *workload)
	}
	s.seed = *seed

	if cfg, isWorker, err := transport.FromEnv(); isWorker {
		if err != nil {
			log.Fatal(err)
		}
		if err := tcpWorker(cfg, s); err != nil {
			log.Fatalf("worker rank %d: %v", cfg.Rank, err)
		}
		return
	}
	if *ref {
		d, err := referenceDigest(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(d)
		return
	}
	if *trace != 0 && *trace != 1 {
		log.Fatalf("--trace must be 0 or 1")
	}
	b := &bench{s: s, seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1,
		outDir: *outDir, cpuprof: *cpuprof}
	out, err := b.run()
	b.closeWorld()
	if err != nil {
		log.Fatal(err)
	}
	enc, err := json.Marshal(out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(enc))
}

// result is the benchmark's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run of one workload.
type bench struct {
	s       spec
	seconds time.Duration
	traced  bool
	outDir  string
	cpuprof bool
	host    hostInfo

	// TCP workloads keep the world the last set-up built for every job.
	tcp *tcpWorld

	ref       string
	attempted int
	failed    int
	checksOK  bool
	timedOut  bool
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	log.Printf("FAILED: "+format, args...)
}

func (b *bench) run() (result, error) {
	b.host = fingerprint()
	b.checksOK = true
	hj, _ := json.Marshal(b.host)
	fmt.Printf("host %s\n", hj)

	ref, err := b.reference()
	if err != nil {
		return result{}, err
	}
	b.ref = ref

	var plainSec float64
	if b.s.kind == driver.JobWordCount {
		t0 := time.Now()
		d, err := plainCount(b.s)
		plainSec = time.Since(t0).Seconds()
		if err != nil {
			return result{}, fmt.Errorf("baseline count: %w", err)
		}
		if d != b.ref {
			b.checksOK = false
			log.Printf("FAILED: baseline map count digest %s != reference %s", d, b.ref)
		}
	}

	setup, err := b.setup()
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}

	var res result
	if b.traced {
		res, err = b.measureTraced(plainSec)
	} else {
		res, err = b.measure(setup)
	}
	if err != nil {
		return result{}, err
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.checksOK && b.failed == 0 && b.attempted > 0
	return res, nil
}

// reference is the digest every measured job must reproduce: the pinned
// one at the default seed, otherwise a reference run in a child process
// (so its memory does not count in this process's peak RSS).
func (b *bench) reference() (string, error) {
	if b.s.seed == defaultSeed && b.s.pin != "" {
		return b.s.pin, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithTimeout(context.Background(), refTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--ref", "--workload", b.s.name, "--seed", fmt.Sprint(b.s.seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("reference run: %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// setup builds the world and runs a warm-up job at 1/warmDiv size,
// setupReps times, and returns each attempt's seconds. A TCP workload's
// set-up spawns the worker process and bootstraps the mesh; the last world
// stays up for the measured jobs.
func (b *bench) setup() ([]float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		settle()
		sw := startWatch()
		if b.s.tcp {
			if err := b.spawn(); err != nil {
				return nil, err
			}
		}
		if _, _, err := b.job(b.s.warm(), nil); err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		secs = append(secs, sw.stop().seconds())
		if b.s.tcp && i < setupReps-1 {
			b.closeWorld()
		}
	}
	return secs, nil
}

// settle starts every job from the same state: the previous job's garbage
// collected and its memory returned to the OS, and the peak RSS reset so
// the next reading is this job's own peak.
func settle() {
	debug.FreeOSMemory()
	resetPeakRSS()
}

// check counts a job as failed on an error or a wrong digest; it reports
// whether the job may be used.
func (b *bench) check(res jobResult, err error) bool {
	b.attempted++
	switch {
	case errors.Is(err, errTimeout):
		b.timedOut = true
		b.fail("job exceeded %v", jobTimeout)
		return false
	case err != nil:
		b.fail("job: %v", err)
		return false
	case res.digest != b.ref:
		b.fail("digest %s != reference %s", res.digest, b.ref)
		return false
	}
	return true
}

// more reports whether the measurement loop should start another job.
func (b *bench) more(start time.Time, done int) bool {
	return !b.timedOut && (done == 0 || time.Since(start) < b.seconds)
}

func (b *bench) measure(setup []float64) (result, error) {
	var jobSec, cpuSec, wallSec, steal, arena, rss []float64
	start := time.Now()
	for i := 0; b.more(start, i); i++ {
		settle()
		res, tm, err := b.job(b.s, nil)
		if !b.check(res, err) {
			continue
		}
		jobSec = append(jobSec, tm.seconds())
		cpuSec = append(cpuSec, tm.cpu)
		wallSec = append(wallSec, tm.wall)
		steal = append(steal, tm.steal)
		arena = append(arena, float64(res.arenaPeak)/mib)
		rss = append(rss, float64(peakRSS())/mib)
	}
	failedRatio := float64(b.failed) / float64(max(b.attempted, 1))
	printRow(b.s.name, "job_s", jobSec, "s")
	printRow(b.s.name, "job_cpu_s", cpuSec, "s")
	printRow(b.s.name, "job_wall_s", wallSec, "s")
	printRow(b.s.name, "job_steal_s", steal, "s")
	printRow(b.s.name, "setup_s", setup, "s")
	printRow(b.s.name, "peak_rss_mb", rss, "MiB")
	printRow(b.s.name, "arena_peak_mb", arena, "MiB")
	printRow(b.s.name, "failed_ratio", []float64{failedRatio}, "ratio")
	return result{Metrics: map[string]metric{
		"job_s":         {median(jobSec), "s"},
		"setup_s":       {median(setup), "s"},
		"peak_rss_mb":   {median(rss), "MiB"},
		"arena_peak_mb": {median(arena), "MiB"},
	}}, nil
}

// measureTraced alternates an untraced job and a traced one (and, on the
// parallel workload, a Workers=1 job) for the run's duration. The traced
// job must reproduce the untraced one exactly: tracing may change timing
// only. Allocator figures come from the untraced job.
func (b *bench) measureTraced(plainSec float64) (result, error) {
	spans := newSpanLog()
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return result{}, err
	}
	base := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d", b.s.name, b.s.seed))
	if b.cpuprof {
		f, err := os.Create(base + ".cpu.pprof")
		if err != nil {
			return result{}, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return result{}, err
		}
		defer pprof.StopCPUProfile()
	}
	var plain, traced, serial []float64
	var samples []map[string]float64
	start := time.Now()
	for i := 0; b.more(start, i); i++ {
		settle()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ures, ut, err := b.job(b.s, nil)
		runtime.ReadMemStats(&m1)
		if !b.check(ures, err) {
			continue
		}
		plain = append(plain, ut.seconds())

		settle()
		tr := newTracer(spans, b.s.ranks)
		tres, tt, err := b.job(b.s, tr)
		if !b.check(tres, err) {
			continue
		}
		if diff := sameOutcome(ures, tres); diff != "" {
			b.fail("traced job differs from untraced: %s", diff)
			continue
		}
		traced = append(traced, tt.seconds())
		l := b.layerMetrics(tr, tres, tt.seconds())
		addMemDelta(l, &m0, &m1, ures.stats.MapOutKVs)
		samples = append(samples, l)

		if b.s.workers > 1 {
			one := b.s
			one.workers = 1
			settle()
			sres, st, err := b.job(one, nil)
			if b.check(sres, err) {
				serial = append(serial, st.seconds())
			}
		}
	}
	for _, l := range samples {
		l["baseline.plain_s"] = plainSec
		l["trace.overhead_ratio"] = ratio(median(traced), median(plain))
		l["core.worker_speedup"] = ratio(median(serial), median(plain))
	}
	metrics := map[string]metric{}
	for _, pl := range perLayer {
		var vals []float64
		for _, l := range samples {
			vals = append(vals, l[pl.name])
		}
		metrics[pl.name] = metric{median(vals), pl.unit}
		fmt.Printf("%-13s %-26s %14.6g %-9s n=%d\n", b.s.name, pl.name, median(vals), pl.unit, len(vals))
	}
	if err := spans.writeChrome(base+".trace.json", b.host); err != nil {
		return result{}, err
	}
	fmt.Printf("spans written to %s.trace.json\n", base)
	return result{Metrics: metrics}, nil
}

// sameOutcome compares everything tracing must not change.
func sameOutcome(a, b jobResult) string {
	type pair struct {
		name string
		x, y int64
	}
	for _, p := range []pair{
		{"arena peak", a.arenaPeak, b.arenaPeak},
		{"shuffled bytes", a.stats.ShuffledBytes, b.stats.ShuffledBytes},
		{"spill evictions", a.stats.SpillEvictions, b.stats.SpillEvictions},
		{"spill restores", a.stats.SpillRestores, b.stats.SpillRestores},
		{"spilled bytes", a.stats.SpilledBytes, b.stats.SpilledBytes},
		{"restored bytes", a.stats.SpillRestoredByte, b.stats.SpillRestoredByte},
		{"prefetch hits", a.stats.SpillPrefetchHits, b.stats.SpillPrefetchHits},
		{"rounds", int64(a.rounds), int64(b.rounds)},
	} {
		if p.x != p.y {
			return fmt.Sprintf("%s %d vs %d", p.name, p.x, p.y)
		}
	}
	if a.digest != b.digest {
		return "digest"
	}
	return ""
}

// perLayer lists the traced run's metrics, in print order, with units.
var perLayer = []struct{ name, unit string }{
	{"workloads.input_s", "s"}, {"workloads.map_s", "s"}, {"workloads.map_calls", "count"},
	{"workloads.combine_s", "s"}, {"workloads.combine_calls", "count"},
	{"workloads.reduce_s", "s"}, {"workloads.reduce_calls", "count"}, {"workloads.output_s", "s"},
	{"workloads.rounds", "count"}, {"workloads.round_s", "s"},
	{"core.self_s", "s"}, {"core.finish_s", "s"}, {"core.stages", "count"},
	{"core.map_out_kvs", "count"}, {"core.shuffled_mb", "MiB"}, {"core.overlap_rounds", "count"},
	{"core.worker_speedup", "ratio"},
	{"transport.exchange_s", "s"}, {"transport.exchange_calls", "count"},
	{"transport.exchange_mb", "MiB"}, {"transport.exchange_share", "ratio"},
	{"transport.reconnects", "count"},
	{"spill.evictions", "count"}, {"spill.restores", "count"}, {"spill.spilled_mb", "MiB"},
	{"spill.restored_mb", "MiB"}, {"spill.prefetch_hit_ratio", "ratio"},
	{"mem.allocs_per_kv", "allocs/kv"}, {"mem.alloc_mb", "MiB"}, {"mem.gc_cycles", "count"},
	{"mem.gc_pause_s", "s"},
	{"simtime.sim_wall_ratio", "ratio"}, {"baseline.plain_s", "s"}, {"trace.overhead_ratio", "ratio"},
}

// layerMetrics turns one traced job into the per-layer split. Times are
// seconds; a callback's time is its own, without the core work it called.
func (b *bench) layerMetrics(tr *tracer, res jobResult, jobSec float64) map[string]float64 {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	lead := tr.ranks[res.local[0]]
	var self, finish, jobNs float64
	for _, r := range res.local {
		rt := tr.ranks[r]
		self += sec(rt.jobNs - rt.gate.covered.Load())
		finish += sec(rt.finishNs.Load())
		jobNs += sec(rt.jobNs)
	}
	n := float64(len(res.local))
	st := res.stats
	m := map[string]float64{
		"workloads.input_s":        sec(tr.input.ns.Load()),
		"workloads.map_s":          sec(tr.mapper.ns.Load()),
		"workloads.map_calls":      float64(tr.mapper.calls.Load()),
		"workloads.combine_s":      sec(tr.combine.ns.Load()),
		"workloads.combine_calls":  float64(tr.combine.calls.Load()),
		"workloads.reduce_s":       sec(tr.reduce.ns.Load()),
		"workloads.reduce_calls":   float64(tr.reduce.calls.Load()),
		"workloads.output_s":       sec(tr.output.ns.Load()),
		"workloads.rounds":         float64(lead.rounds),
		"workloads.round_s":        ratio(sec(lead.roundNs), float64(lead.rounds)),
		"core.self_s":              self / n,
		"core.finish_s":            finish / n,
		"core.stages":              float64(res.stages),
		"core.map_out_kvs":         float64(st.MapOutKVs),
		"core.shuffled_mb":         float64(st.ShuffledBytes) / mib,
		"core.overlap_rounds":      float64(st.OverlapRounds),
		"transport.exchange_s":     sec(tr.exchNs.Load()),
		"transport.exchange_calls": float64(tr.exchCalls.Load()),
		"transport.exchange_mb":    float64(tr.exchBytes.Load()) / mib,
		"transport.exchange_share": ratio(sec(tr.exchNs.Load()), jobNs),
		"spill.evictions":          float64(st.SpillEvictions),
		"spill.restores":           float64(st.SpillRestores),
		"spill.spilled_mb":         float64(st.SpilledBytes) / mib,
		"spill.restored_mb":        float64(st.SpillRestoredByte) / mib,
		"spill.prefetch_hit_ratio": ratio(float64(st.SpillPrefetchHits), float64(st.SpillRestores)),
	}
	if b.tcp != nil {
		fs, _ := b.tcp.world.FaultStats()
		m["transport.reconnects"] = float64(fs.Reconnects)
	} else {
		m["simtime.sim_wall_ratio"] = res.simSec / jobSec
	}
	return m
}

// job runs one job of s (which may be the warm-up or Workers=1 variant of
// b.s) under jobTimeout and returns its result and timing.
func (b *bench) job(s spec, tr *tracer) (jobResult, timing, error) {
	var w *mpi.World
	var abort func(error)
	if b.s.tcp {
		cmd := cmdFull
		if s.warmup {
			cmd = cmdWarm
		}
		if err := b.tcp.send(cmd); err != nil {
			return jobResult{}, timing{}, err
		}
		b.tcp.cur.Store(tr)
		defer b.tcp.cur.Store(nil)
		w, abort = b.tcp.world, b.tcp.tr.Abort
	} else {
		loc := transport.NewLocal(s.ranks)
		var tt transport.Transport = loc
		if tr != nil {
			cur := new(atomic.Pointer[tracer])
			cur.Store(tr)
			tt = newTracedTransport(loc, cur)
		}
		w, abort = mpi.NewWorld(mpi.Config{Transport: tt, Net: plat.Net}), loc.Abort
	}
	type outcome struct {
		res jobResult
		err error
	}
	done := make(chan outcome, 1)
	sw := startWatch()
	go func() {
		res, err := runJob(w, s, tr)
		done <- outcome{res, err}
	}()
	timer := time.NewTimer(jobTimeout)
	defer timer.Stop()
	select {
	case o := <-done:
		return o.res, sw.stop(), o.err
	case <-timer.C:
	}
	abort(fmt.Errorf("%w: %v", transport.ErrAborted, errTimeout))
	select {
	case <-done:
	case <-time.After(grace):
	}
	return jobResult{}, sw.stop(), errTimeout
}

func printRow(workload, name string, vals []float64, unit string) {
	q := quartiles(vals)
	fmt.Printf("%-13s %-14s %12.6g %-6s n=%-3d p25=%.6g p75=%.6g\n",
		workload, name, median(vals), unit, len(vals), q[0], q[2])
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return quartiles(vals)[1]
}

// quartiles returns the three quartiles by linear interpolation between
// order statistics (a single value is its own quartiles).
func quartiles(vals []float64) [3]float64 {
	if len(vals) == 0 {
		return [3]float64{}
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	at := func(p float64) float64 {
		pos := p * float64(len(v)-1)
		lo := int(pos)
		if lo+1 >= len(v) {
			return v[lo]
		}
		return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
