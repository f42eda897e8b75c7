package core

// Intra-rank worker-pool execution (Config.Workers). Concurrency here obeys
// one rule: workers may reorder *work*, never *results*. Every parallel
// phase shards its input deterministically, stages its effects privately,
// and replays them in worker order, so the bytes any observer sees — send
// partitions, exchange rounds, containers, checkpoints, output pages — are
// identical for every worker count. The container phases (partial
// reduction, convert, reduce) run one code path for every count: Workers=1
// is its one-shard case. Simulated time charges the slowest worker per
// phase (the max rule, mirroring the overlap window's max(compute, comm)),
// and sum/(W·max) is reported as the phase's parallel efficiency.

import (
	"fmt"
	"sync"

	"mimir/internal/kvbuf"
	"mimir/internal/simtime"
)

// workers returns the rank's configured pool size (>= 1 after defaults).
func (j *Job) workers() int { return j.cfg.Workers }

// shards returns how many ways the container phases (partial reduction,
// convert, reduce) split their keys or records. The spill store is the
// rank's one non-thread-safe shared dependency — its lock is a no-op
// without a spill group and it charges the rank clock from whichever
// goroutine calls it — so a job with a store runs its containers as one
// shard. The map fan-out never touches the store and uses every worker
// under every policy; output is byte-identical either way.
func (j *Job) shards() int {
	if j.store != nil {
		return 1
	}
	return j.workers()
}

// pool is a job's set of long-lived fan-out workers. Worker 0 is the
// calling goroutine; workers 1..n-1 park on their own start channel between
// fan-outs, so a fan-out costs channel hand-offs, not goroutines or
// allocations.
type pool struct {
	start  []chan struct{} // start[w] wakes worker w >= 1
	errs   []error
	fn     func(w int) error
	wg     sync.WaitGroup // one fan-out's workers
	exited sync.WaitGroup // the parked goroutines, for stop
}

func startPool(n int) *pool {
	p := &pool{start: make([]chan struct{}, n), errs: make([]error, n)}
	p.exited.Add(n - 1)
	for w := 1; w < n; w++ {
		p.start[w] = make(chan struct{})
		go p.work(w)
	}
	return p
}

func (p *pool) work(w int) {
	defer p.exited.Done()
	for range p.start[w] {
		p.errs[w] = p.fn(w)
		p.wg.Done()
	}
}

// run is a kvbuf.Fanout over the pool's first n workers: it runs fn(w) for
// w in [0, n) and returns the lowest-numbered worker's error, so a
// multi-worker failure reports the same error on every run regardless of
// scheduling. One worker needs no pool (p may be nil).
func (p *pool) run(n int, fn func(w int) error) error {
	if n == 1 {
		return fn(0)
	}
	p.fn = fn
	p.wg.Add(n - 1)
	for w := 1; w < n; w++ {
		p.start[w] <- struct{}{}
	}
	p.errs[0] = fn(0)
	p.wg.Wait()
	p.fn = nil
	for _, err := range p.errs[:n] {
		if err != nil {
			return err
		}
	}
	return nil
}

// stop ends the parked workers and returns once they have exited. The
// pool is unusable afterwards.
func (p *pool) stop() {
	for _, c := range p.start[1:] {
		close(c)
	}
	p.exited.Wait()
}

// meter is one container worker's simulated-compute account. With one
// shard the worker is the rank goroutine and the meter advances the rank
// clock at once, exactly where a serial loop would; with several it
// accumulates, and settle charges the slowest worker after the join.
type meter struct {
	clock *simtime.Clock // set: one shard, charge immediately
	sec   float64
}

func (m *meter) charge(sec float64) {
	if m.clock != nil {
		m.clock.Advance(sec, simtime.Compute)
		return
	}
	m.sec += sec
}

// fanout runs fn on the first n container workers (n <= shards) and
// settles their meters into acc.
func (j *Job) fanout(n int, acc *parAcc, fn func(w int) error) error {
	err := j.pool.run(n, fn)
	j.settle(n, acc)
	return err
}

// settle charges the slowest of the first n meters to the rank clock,
// folding all n into acc, and zeroes them. One shard's meter has already
// charged as it went.
func (j *Job) settle(n int, acc *parAcc) {
	if j.shards() == 1 {
		return
	}
	costs := j.costs[:n]
	for w := range costs {
		costs[w] = j.meters[w].sec
		j.meters[w].sec = 0
	}
	j.charge(acc.add(costs), simtime.Compute)
}

// parAcc accumulates one phase's per-worker compute so the rank can charge
// max-over-workers wall time while reporting sum/(W·max) efficiency.
type parAcc struct{ sum, max float64 }

// add folds one fan-out's per-worker costs in and returns the chargeable
// (slowest-worker) cost.
func (a *parAcc) add(costs []float64) float64 {
	var m float64
	for _, c := range costs {
		a.sum += c
		if c > m {
			m = c
		}
	}
	a.max += m
	return m
}

// eff returns the accumulated parallel efficiency for a pool of the given
// size: 1 for perfectly balanced work (or no work / serial execution),
// 1/workers for fully serialized work.
func (a parAcc) eff(workers int) float64 {
	if a.max <= 0 || workers <= 1 {
		return 1
	}
	return a.sum / (float64(workers) * a.max)
}

// Map batching: input records are buffered (bytes copied — the input may
// reuse its buffers between emits) until a batch is worth fanning out. The
// bounds keep the uncharged Go-memory staging small relative to a page
// while giving each worker enough records to amortize the join.
const (
	mapBatchRecords = 512
	mapBatchBytes   = 256 << 10
)

// recSpan locates one (key, value) pair inside a staging buffer: the key
// starts at off, the value follows it.
type recSpan struct{ off, klen, vlen int }

// recBatch is the shared input-record buffer the map fan-out consumes.
type recBatch struct {
	buf   []byte
	spans []recSpan
}

func (b *recBatch) add(rec Record) {
	off := len(b.buf)
	b.buf = append(b.buf, rec.Key...)
	b.buf = append(b.buf, rec.Val...)
	b.spans = append(b.spans, recSpan{off, len(rec.Key), len(rec.Val)})
}

func (b *recBatch) full() bool {
	return len(b.spans) >= mapBatchRecords || len(b.buf) >= mapBatchBytes
}

func (b *recBatch) reset() {
	b.buf = b.buf[:0]
	b.spans = b.spans[:0]
}

// at reconstructs span sp's record, preserving nil-ness for empty sides so
// a batched map callback sees exactly what a serial one would.
func (b *recBatch) at(sp recSpan) (k, v []byte) {
	if sp.klen > 0 {
		k = b.buf[sp.off : sp.off+sp.klen]
	}
	if sp.vlen > 0 {
		v = b.buf[sp.off+sp.klen : sp.off+sp.klen+sp.vlen]
	}
	return k, v
}

// stagedKVs is one worker's private map-output staging. Emitted KVs land in
// plain Go memory — scaffolding bounded by the batch size, deliberately not
// arena-charged, and reused batch after batch — and are replayed through
// the serial emit path in worker order, which equals original record order
// because workers own contiguous record chunks.
type stagedKVs struct {
	costs *Costs
	buf   []byte
	spans []recSpan
	cost  float64
}

func (s *stagedKVs) Emit(k, v []byte) error {
	s.cost += s.costs.PerRecord + float64(len(k)+len(v))*s.costs.KVPerByte
	off := len(s.buf)
	s.buf = append(s.buf, k...)
	s.buf = append(s.buf, v...)
	s.spans = append(s.spans, recSpan{off, len(k), len(v)})
	return nil
}

// flushMapBatch fans the batched records out over the pool: each worker
// runs mapFn over a contiguous chunk into private staging, accumulating the
// map and per-emit compute its records cost; the rank then charges the
// slowest worker and replays the staged KVs in worker order through
// emitMapped — the same byte sequence, combiner folds, and exchange-round
// schedule a serial map would produce.
func (j *Job) flushMapBatch(b *recBatch, mapFn MapFunc) error {
	n := len(b.spans)
	if n == 0 {
		return nil
	}
	w := j.workers()
	if w > n {
		w = n
	}
	stages := j.mapStages[:w]
	err := j.pool.run(w, func(i int) error {
		st := &stages[i]
		st.buf, st.spans, st.cost = st.buf[:0], st.spans[:0], 0
		for _, sp := range b.spans[n*i/w : n*(i+1)/w] {
			k, v := b.at(sp)
			st.cost += float64(sp.klen+sp.vlen) * j.cfg.Costs.MapPerByte
			if err := mapFn(Record{Key: k, Val: v}, st); err != nil {
				return err
			}
		}
		return nil
	})
	costs := j.costs[:w]
	for i := range stages {
		costs[i] = stages[i].cost
	}
	j.charge(j.parMap.add(costs), simtime.Compute)
	if err != nil {
		return err
	}
	for i := range stages {
		st := &stages[i]
		for _, sp := range st.spans {
			k := st.buf[sp.off : sp.off+sp.klen]
			v := st.buf[sp.off+sp.klen : sp.off+sp.klen+sp.vlen]
			if err := j.emitMapped(k, v); err != nil {
				return err
			}
		}
	}
	b.reset()
	return nil
}

// consumeRoundPR folds one exchange round's received chunks into the
// partial-reduction bucket on the container workers. Every worker decodes
// the full round (chunks are read-only and Decode returns aliases into
// them), hashes each key once, and upserts only its own shard's keys,
// tagging each KV with its global arrival sequence — continued across
// rounds via prSeq — so the merged scan reproduces one-shard insertion
// order exactly. A worker's compute is the encoded bytes it folded.
func (j *Job) consumeRoundPR(recv [][]byte) error {
	var total uint64
	err := j.fanout(j.shards(), &j.parAggr, func(w int) error {
		seq := j.prSeq
		var folded int
		for _, chunk := range recv {
			for pos := 0; pos < len(chunk); {
				k, v, n, err := j.cfg.Hint.Decode(chunk[pos:])
				if err != nil {
					return fmt.Errorf("core: bad received chunk: %w", err)
				}
				pos += n
				cur := seq
				seq++
				h := kvbuf.HashKey(k)
				if j.prBucket.ShardOf(h) != w {
					continue
				}
				folded += n
				err = j.prBucket.Upsert(w, cur, h, k, v, func(existing, incoming []byte) ([]byte, error) {
					return j.cfg.PartialReduce(k, existing, incoming)
				})
				if err != nil {
					return err
				}
			}
		}
		j.meters[w].charge(float64(folded) * j.cfg.Costs.KVPerByte)
		if w == 0 {
			total = seq - j.prSeq
		}
		return nil
	})
	if err != nil {
		return err
	}
	j.prSeq += total
	j.stats.RecvKVs += int64(total)
	return nil
}

// reduceBatchRecords bounds how many KMV records one reduce fan-out covers,
// which in turn bounds the transient arena footprint of the per-worker
// staging containers (at most one batch's output plus a partial page per
// worker is alive beyond the final output at any moment).
const reduceBatchRecords = 1024

// reduceEmitter is one reduce worker's output: the job output itself for
// worker 0, a private arena-charged staging container for the others.
type reduceEmitter struct {
	costs *Costs
	kvc   *kvbuf.KVC
	m     *meter
}

func (e *reduceEmitter) Emit(k, v []byte) error {
	e.m.charge(e.costs.PerRecord + float64(len(k)+len(v))*e.costs.ReducePerByte)
	return e.kvc.Append(k, v)
}

// reduce runs reduceFn over contiguous KMV record ranges on the container
// workers. Records partition by index, so value iterators never race.
// Worker 0 appends straight into out; the others stage and are drained
// into out in worker order, reproducing the one-shard append sequence —
// and therefore the exact output page layout — batch by batch. With one
// shard this is a plain serial loop with no staging.
func (j *Job) reduce(kmv *kvbuf.KMVC, reduceFn ReduceFunc, out *kvbuf.KVC) error {
	shards := j.shards()
	emit := make([]reduceEmitter, shards)
	for i := range emit {
		emit[i] = reduceEmitter{costs: &j.cfg.Costs, kvc: out, m: &j.meters[i]}
		if i > 0 {
			emit[i].kvc = kvbuf.NewKVC(j.cfg.Arena, j.cfg.PageSize, j.cfg.Hint)
			defer emit[i].kvc.Free()
		}
	}
	n := kmv.NumKMV()
	for lo := 0; lo < n; lo += reduceBatchRecords {
		cnt := n - lo
		if cnt > reduceBatchRecords {
			cnt = reduceBatchRecords
		}
		w := shards
		if w > cnt {
			w = cnt
		}
		err := j.fanout(w, &j.parReduce, func(i int) error {
			em := &emit[i]
			return kmv.ScanRange(lo+cnt*i/w, lo+cnt*(i+1)/w, func(key []byte, vals *kvbuf.ValueIter) error {
				em.m.charge(j.cfg.Costs.PerRecord)
				return reduceFn(key, vals, em)
			})
		})
		if err != nil {
			return err
		}
		for _, em := range emit[1:w] {
			if err := em.kvc.Drain(out.Append); err != nil {
				return err
			}
		}
	}
	return nil
}
