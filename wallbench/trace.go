package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/transport"
	"mimir/internal/workloads"
)

// Tracing is done entirely from the benchmark's side of the public call
// boundaries: callbacks handed to Engine.RunStage are wrapped, the engine
// itself is wrapped where the workload allows it, rounds are observed
// through MultiRound.OnRound, and exchanges through a Transport/Endpoint
// decorator. Nothing inside the program is instrumented.
//
// Callbacks are aggregated to a call count and a busy time (summed over the
// goroutines that ran them, so at Workers=2 a busy time can exceed wall
// time). Jobs, stages, rounds and exchanges are recorded as spans.

// span is one recorded interval, in nanoseconds since the log's base.
type span struct {
	Name       string
	ID, Parent int64
	Job        int64
	Rank       int
	Start, End int64
}

// spanLog collects the spans of every traced job of a run in memory; they
// are written once, when the run ends.
type spanLog struct {
	base   time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

func (l *spanLog) id() int64 { return l.nextID.Add(1) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): one complete ("X") event per span, one thread row per rank.
func (l *spanLog) writeChrome(path string, meta any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	l.mu.Lock()
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Rank,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job},
		})
	}
	l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// counter aggregates one kind of callback: calls and busy nanoseconds.
type counter struct{ calls, ns atomic.Int64 }

func (c *counter) add(ns int64) {
	c.calls.Add(1)
	c.ns.Add(ns)
}

// gate measures how long at least one of a rank's goroutines is outside
// core: in a callback's own code, in an exchange, or producing the job's
// output. Core's self time is the rank's job span minus this covered time.
// state packs the start of the current covered interval (high 56 bits, ns)
// and the number of goroutines inside (low 8 bits).
type gate struct {
	state   atomic.Uint64
	covered atomic.Int64
}

func (g *gate) enter(now int64) {
	for {
		old := g.state.Load()
		next := old + 1
		if old&0xff == 0 {
			next = uint64(now)<<8 | 1
		}
		if g.state.CompareAndSwap(old, next) {
			return
		}
	}
}

func (g *gate) exit(now int64) {
	for {
		old := g.state.Load()
		if old&0xff == 1 {
			if g.state.CompareAndSwap(old, 0) {
				g.covered.Add(now - int64(old>>8))
				return
			}
			continue
		}
		if g.state.CompareAndSwap(old, old-1) {
			return
		}
	}
}

// rankTrace is one rank's span state. The span fields are touched only by
// the rank's own goroutine (stages, rounds and exchanges all run on it);
// the fields worker goroutines reach are atomic.
type rankTrace struct {
	gate                  gate
	jobSpan, jobStart     int64
	stageSpan             int64
	roundSpan, roundStart int64
	rounds, roundNs       int64
	lastExchEnd           atomic.Int64
	fed                   atomic.Bool // the current stage has reached reduce or sink
	finishNs              atomic.Int64
	jobNs                 int64
}

// parent is the innermost open span of the rank.
func (r *rankTrace) parent() int64 {
	switch {
	case r.stageSpan != 0:
		return r.stageSpan
	case r.roundSpan != 0:
		return r.roundSpan
	}
	return r.jobSpan
}

// tracer holds one traced job's counters.
type tracer struct {
	log   *spanLog
	job   int64
	ranks []*rankTrace

	input, mapper, combine, reduce, output counter
	exchCalls, exchNs, exchBytes           atomic.Int64
}

func newTracer(log *spanLog, size int) *tracer {
	t := &tracer{log: log, job: log.id(), ranks: make([]*rankTrace, size)}
	for i := range t.ranks {
		t.ranks[i] = &rankTrace{}
	}
	return t
}

func (t *tracer) now() int64 { return t.log.now() }

func (t *tracer) beginJob(rank int) {
	r := t.ranks[rank]
	r.jobStart = t.now()
	r.jobSpan = t.log.id()
}

func (t *tracer) endJob(rank int) {
	r := t.ranks[rank]
	end := t.now()
	t.closeRound(rank, end)
	r.jobNs = end - r.jobStart
	t.log.add(span{Name: "job", ID: r.jobSpan, Job: t.job, Rank: rank, Start: r.jobStart, End: end})
}

func (t *tracer) closeRound(rank int, end int64) {
	r := t.ranks[rank]
	if r.roundSpan == 0 {
		return
	}
	r.roundNs += end - r.roundStart
	t.log.add(span{Name: "round", ID: r.roundSpan, Parent: r.jobSpan, Job: t.job, Rank: rank, Start: r.roundStart, End: end})
	r.roundSpan = 0
}

// onRound is the MultiRound.OnRound hook: it closes the previous round's
// span and opens the next.
func (t *tracer) onRound(rank int) func(int) error {
	return func(int) error {
		r := t.ranks[rank]
		now := t.now()
		t.closeRound(rank, now)
		r.rounds++
		r.roundSpan, r.roundStart = t.log.id(), now
		return nil
	}
}

// outputBegin/outputEnd bracket the benchmark's own digest work after a
// job's stages (gather, sort, hash), which is neither core nor callback.
func (t *tracer) outputBegin(rank int) int64 {
	now := t.now()
	t.ranks[rank].gate.enter(now)
	return now
}

func (t *tracer) outputEnd(rank int, start int64) {
	now := t.now()
	t.ranks[rank].gate.exit(now)
	t.output.add(now - start)
}

// feed records the first reduce or sink callback of a stage: the time
// since the stage's last exchange returned is convert plus drain work.
func (t *tracer) feed(r *rankTrace, now int64) {
	if r.fed.CompareAndSwap(false, true) {
		if last := r.lastExchEnd.Load(); last > 0 && now > last {
			r.finishNs.Add(now - last)
		}
	}
}

// tracedEngine wraps a workload engine so every stage's callbacks are
// timed. Only workloads that never type-assert their engine may use it;
// PageRank (and TeraSort) charge resident state to the arena only when
// handed the concrete *workloads.MimirEngine.
type tracedEngine struct {
	workloads.Engine
	t    *tracer
	rank int
}

func (e *tracedEngine) RunStage(opts workloads.StageOpts, input core.Input, mapFn core.MapFunc,
	reduceFn core.ReduceFunc, sink func(k, v []byte) error) (workloads.StageStats, error) {
	t, r := e.t, e.t.ranks[e.rank]
	start := t.now()
	r.stageSpan = t.log.id()
	r.fed.Store(false)
	if opts.PartialReduce != nil {
		opts.PartialReduce = t.wrapCombine(r, opts.PartialReduce)
	}
	if reduceFn != nil {
		reduceFn = t.wrapReduce(r, reduceFn)
	}
	if sink != nil {
		sink = t.wrapSink(r, sink)
	}
	stats, err := e.Engine.RunStage(opts, t.wrapInput(r, input), t.wrapMap(r, mapFn), reduceFn, sink)
	parent := r.roundSpan
	if parent == 0 {
		parent = r.jobSpan
	}
	t.log.add(span{Name: "stage", ID: r.stageSpan, Parent: parent, Job: t.job, Rank: e.rank, Start: start, End: t.now()})
	r.stageSpan = 0
	return stats, err
}

func (t *tracer) wrapInput(r *rankTrace, in core.Input) core.Input {
	return func(emit func(rec core.Record) error) error {
		var self int64
		start := t.now()
		r.gate.enter(start)
		err := in(func(rec core.Record) error {
			now := t.now()
			r.gate.exit(now)
			self += now - start
			err := emit(rec)
			start = t.now()
			r.gate.enter(start)
			return err
		})
		end := t.now()
		r.gate.exit(end)
		t.input.add(self + end - start)
		return err
	}
}

// timedEmitter takes the time a callback spends inside core's Emit out of
// the callback's own time.
type timedEmitter struct {
	inner   core.Emitter
	t       *tracer
	r       *rankTrace
	innerNs int64
}

func (e *timedEmitter) Emit(k, v []byte) error {
	start := e.t.now()
	e.r.gate.exit(start)
	err := e.inner.Emit(k, v)
	end := e.t.now()
	e.r.gate.enter(end)
	e.innerNs += end - start
	return err
}

var emitters = sync.Pool{New: func() any { return new(timedEmitter) }}

func (t *tracer) wrapMap(r *rankTrace, f core.MapFunc) core.MapFunc {
	return func(rec core.Record, emit core.Emitter) error {
		te := emitters.Get().(*timedEmitter)
		*te = timedEmitter{inner: emit, t: t, r: r}
		start := t.now()
		r.gate.enter(start)
		err := f(rec, te)
		end := t.now()
		r.gate.exit(end)
		t.mapper.add(end - start - te.innerNs)
		*te = timedEmitter{}
		emitters.Put(te)
		return err
	}
}

func (t *tracer) wrapReduce(r *rankTrace, f core.ReduceFunc) core.ReduceFunc {
	return func(key []byte, vals *kvbuf.ValueIter, emit core.Emitter) error {
		te := emitters.Get().(*timedEmitter)
		*te = timedEmitter{inner: emit, t: t, r: r}
		start := t.now()
		t.feed(r, start)
		r.gate.enter(start)
		err := f(key, vals, te)
		end := t.now()
		r.gate.exit(end)
		t.reduce.add(end - start - te.innerNs)
		*te = timedEmitter{}
		emitters.Put(te)
		return err
	}
}

func (t *tracer) wrapCombine(r *rankTrace, f core.CombineFunc) core.CombineFunc {
	return func(key, existing, incoming []byte) ([]byte, error) {
		start := t.now()
		r.gate.enter(start)
		out, err := f(key, existing, incoming)
		end := t.now()
		r.gate.exit(end)
		t.combine.add(end - start)
		return out, err
	}
}

func (t *tracer) wrapSink(r *rankTrace, f func(k, v []byte) error) func(k, v []byte) error {
	return func(k, v []byte) error {
		start := t.now()
		t.feed(r, start)
		r.gate.enter(start)
		err := f(k, v)
		end := t.now()
		r.gate.exit(end)
		t.output.add(end - start)
		return err
	}
}

// tracedTransport decorates a transport so each Exchange is timed and
// recorded while a tracer is installed; with none installed it forwards
// untouched. It forwards every optional interface the runtime type-asserts
// (FaultStats, Policy, Err, Epoch, Mux, and Recycle on endpoints): losing
// one would silently change behaviour, e.g. turn off TCP frame pooling.
type tracedTransport struct {
	transport.Transport
	cur *atomic.Pointer[tracer]
	eps map[int]*tracedEndpoint
}

func newTracedTransport(inner transport.Transport, cur *atomic.Pointer[tracer]) *tracedTransport {
	tt := &tracedTransport{Transport: inner, cur: cur, eps: make(map[int]*tracedEndpoint)}
	for _, r := range inner.LocalRanks() {
		tt.eps[r] = &tracedEndpoint{Endpoint: inner.Endpoint(r), cur: cur}
	}
	return tt
}

func (tt *tracedTransport) Endpoint(rank int) transport.Endpoint { return tt.eps[rank] }

func (tt *tracedTransport) FaultStats() transport.FaultStats {
	if r, ok := tt.Transport.(transport.FaultReporter); ok {
		return r.FaultStats()
	}
	return transport.FaultStats{}
}

func (tt *tracedTransport) Policy() transport.FaultPolicy {
	if r, ok := tt.Transport.(transport.PolicyReporter); ok {
		return r.Policy()
	}
	return transport.AbortOnFailure
}

func (tt *tracedTransport) Err() error {
	if r, ok := tt.Transport.(transport.ErrReporter); ok {
		return r.Err()
	}
	return nil
}

func (tt *tracedTransport) Epoch() uint64 {
	if r, ok := tt.Transport.(transport.EpochReporter); ok {
		return r.Epoch()
	}
	return 0
}

func (tt *tracedTransport) Open(job uint32) (transport.Transport, error) {
	m, ok := tt.Transport.(transport.Mux)
	if !ok {
		return nil, fmt.Errorf("wallbench: transport %T is not a Mux", tt.Transport)
	}
	ch, err := m.Open(job)
	if err != nil {
		return nil, err
	}
	return newTracedTransport(ch, tt.cur), nil
}

type tracedEndpoint struct {
	transport.Endpoint
	cur *atomic.Pointer[tracer]
}

func (e *tracedEndpoint) Recycle(b []byte) {
	if r, ok := e.Endpoint.(interface{ Recycle([]byte) }); ok {
		r.Recycle(b)
	}
}

func (e *tracedEndpoint) Exchange(send [][]byte, now float64) ([][]byte, float64, error) {
	t := e.cur.Load()
	if t == nil {
		return e.Endpoint.Exchange(send, now)
	}
	rank := e.Rank()
	r := t.ranks[rank]
	start := t.now()
	r.gate.enter(start)
	recv, tmax, err := e.Endpoint.Exchange(send, now)
	end := t.now()
	r.gate.exit(end)
	r.lastExchEnd.Store(end)
	var n int64
	for _, b := range send {
		n += int64(len(b))
	}
	t.exchCalls.Add(1)
	t.exchNs.Add(end - start)
	t.exchBytes.Add(n)
	t.log.add(span{Name: "exchange", ID: t.log.id(), Parent: r.parent(), Job: t.job, Rank: rank, Start: start, End: end})
	return recv, tmax, err
}
