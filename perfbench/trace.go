package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/operator"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/window"
)

// perLayer are the metrics of a traced run (-trace 1): counts and
// timings taken at the public seams between the layers, plus the traced
// run's own end-to-end figures under "traced.", whose difference from a
// timed run is the tracing overhead. A layer the workload does not use
// reports 0.
var perLayer = append([]metricDef{
	{"transport.credit_wait_ms", "ms"},
	{"transport.events_per_frame", "count"},
	{"transport.retries", "count"},
	{"transport.throttle_wait_ms", "ms"},
	{"sink.busy_us_p50", "us"},
	{"sink.busy_us_p99", "us"},
	{"sink.busy_share", "ratio"},
	{"sink.events_per_call", "count"},
	{"wal.append_us_p50", "us"},
	{"wal.commit_us_p50", "us"},
	{"wal.commit_us_p99", "us"},
	{"wal.appends_per_sync", "ratio"},
	{"wal.bytes_per_event", "B"},
	{"engine.fanout", "ratio"},
	{"engine.budget_drop", "1/s"},
	{"runtime.queue_len_p50", "count"},
	{"runtime.queue_len_max", "count"},
	{"core.decisions", "count"},
	{"core.drop_ratio", "ratio"},
	{"core.commanded_x", "count"},
	{"core.train_s", "s"},
	{"window.memberships_per_event", "ratio"},
	{"window.closes", "count"},
	{"pattern.matches_per_close", "ratio"},
	{"emit.complex_events", "count"},
	{"emit.out_wait_us_p99", "us"},
	{"replay.truth_s", "s"},
	{"replay.shed_s", "s"},
	{"replay.shed_fraction", "ratio"},
	{"replay.fn_pct", "%"},
	{"replay.fp_pct", "%"},
	{"replay.lb_miss_pct", "%"},
	{"operator.process_ns", "ns"},
	{"gen.late_ms_p99", "ms"},
	{"lat.p90_ms", "ms"},
	{"lat.p99_ms", "ms"},
	{"lat.samples", "count"},
}, tracedEndToEnd()...)

// tracedPrefix marks a traced run's end-to-end figures.
const tracedPrefix = "traced."

func tracedEndToEnd() []metricDef {
	out := make([]metricDef, len(endToEnd))
	for i, d := range endToEnd {
		out[i] = metricDef{tracedPrefix + d.name, d.unit}
	}
	return out
}

// markTraced renames the end-to-end metrics a traced run measured.
func (r *report) markTraced() {
	for _, d := range endToEnd {
		if m, ok := r.metrics[d.name]; ok {
			delete(r.metrics, d.name)
			r.metrics[tracedPrefix+d.name] = m
		}
	}
}

// span is one timed interval at a layer seam. Parent is the id of the
// producer batch the work belongs to (0 when it cannot be told from
// outside); Batch identifies the unit of work at this seam.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent uint64 `json:"parent"`
	Batch  uint64 `json:"batch"`
}

// maxSpans bounds the in-memory trace; later spans are counted, not
// kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) record(name string, start, end time.Time, parent, batch uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) == maxSpans {
		tr.dropped++
		return
	}
	tr.spans = append(tr.spans, span{name, int64(start.Sub(tr.t0)), int64(end.Sub(tr.t0)), parent, batch})
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// batchID is the span id of producer batch k (0-based) of connection
// conn.
func batchID(conn, k uint64) uint64 { return conn<<32 | (k + 1) }

// batchOfSeq recovers the producer batch an event came from: every
// connection numbers its events from conn*seqStride.
func batchOfSeq(seq uint64, batch int) uint64 {
	return batchID(seq/seqStride, (seq%seqStride)/uint64(batch))
}

// timedSink wraps the server's sink: it times every call, counts the
// events, and fingerprints them in the delivery ledger before they are
// handed on, as espice-serve's ledger does.
type timedSink struct {
	inner transport.Sink
	tr    *tracer
	batch int

	mu     sync.Mutex
	busy   []float64 // us per call
	events uint64
	ledger seqLedger
}

// timedTenantSink keeps the TenantSink extension of a tenant-aware
// sink, so the server submits with tenant identity exactly as it does
// without the wrapper.
type timedTenantSink struct {
	*timedSink
	tenant transport.TenantSink
}

// wrapSink returns the wrapper to hand the server (with every optional
// interface of inner) and its recorder.
func wrapSink(inner transport.Sink, tr *tracer, batch int) (transport.Sink, *timedSink) {
	ts := &timedSink{inner: inner, tr: tr, batch: batch}
	if tenant, ok := inner.(transport.TenantSink); ok {
		return &timedTenantSink{timedSink: ts, tenant: tenant}, ts
	}
	return ts, ts
}

func (s *timedSink) SubmitBatch(events []event.Event) {
	s.observe(events)
	t0 := time.Now()
	s.inner.SubmitBatch(events)
	s.done(t0, events)
}

func (s *timedTenantSink) SubmitTenantBatch(tenant string, events []event.Event) {
	s.observe(events)
	t0 := time.Now()
	s.tenant.SubmitTenantBatch(tenant, events)
	s.done(t0, events)
}

func (s *timedSink) observe(events []event.Event) {
	s.mu.Lock()
	s.ledger.add(events)
	s.mu.Unlock()
}

func (s *timedSink) done(t0 time.Time, events []event.Event) {
	t1 := time.Now()
	var parent uint64
	if len(events) > 0 {
		parent = batchOfSeq(events[0].Seq, s.batch)
	}
	s.mu.Lock()
	s.busy = append(s.busy, us(t1.Sub(t0)))
	s.events += uint64(len(events))
	n := uint64(len(s.busy))
	s.mu.Unlock()
	s.tr.record("sink.submit", t0, t1, parent, n)
}

// walJournal adapts the write-ahead log to the transport's journal
// seam, with health reporting, as espice-serve does.
type walJournal struct{ log *wal.Log }

func (j walJournal) Append(session, batchSeq uint64, count int, maxTS event.Time, payload []byte) (uint64, error) {
	return j.log.Append(session, batchSeq, payload)
}

func (j walJournal) Commit(seq uint64) error { return j.log.Commit(seq) }

func (j walJournal) Degraded() bool { return j.log.Stats().Degraded }

// timedJournal times the journal's Append and Commit.
type timedJournal struct {
	inner    transport.Journal
	tr       *tracer
	chunks   uint64 // session batches per producer batch
	mu       sync.Mutex
	appendUS []float64
	commitUS []float64
	parentOf map[uint64]uint64 // journal seq -> producer batch span
}

// timedHealthJournal keeps the JournalHealth extension.
type timedHealthJournal struct {
	*timedJournal
	health transport.JournalHealth
}

func (j *timedHealthJournal) Degraded() bool { return j.health.Degraded() }

// wrapJournal returns the wrapper to hand the server (with every
// optional interface of inner) and its recorder. chunks is how many
// session batches one producer batch is written as.
func wrapJournal(inner transport.Journal, tr *tracer, chunks int) (transport.Journal, *timedJournal) {
	tj := &timedJournal{inner: inner, tr: tr, chunks: uint64(max(chunks, 1)), parentOf: map[uint64]uint64{}}
	if h, ok := inner.(transport.JournalHealth); ok {
		return &timedHealthJournal{timedJournal: tj, health: h}, tj
	}
	return tj, tj
}

func (j *timedJournal) Append(session, batchSeq uint64, count int, maxTS event.Time, payload []byte) (uint64, error) {
	t0 := time.Now()
	seq, err := j.inner.Append(session, batchSeq, count, maxTS, payload)
	t1 := time.Now()
	var parent uint64
	if session > 0 && batchSeq > 0 {
		parent = batchID(session-1, (batchSeq-1)/j.chunks)
	}
	j.mu.Lock()
	j.appendUS = append(j.appendUS, us(t1.Sub(t0)))
	j.parentOf[seq] = parent
	j.mu.Unlock()
	j.tr.record("wal.append", t0, t1, parent, seq)
	return seq, err
}

func (j *timedJournal) Commit(seq uint64) error {
	t0 := time.Now()
	err := j.inner.Commit(seq)
	t1 := time.Now()
	j.mu.Lock()
	j.commitUS = append(j.commitUS, us(t1.Sub(t0)))
	parent := j.parentOf[seq]
	delete(j.parentOf, seq)
	j.mu.Unlock()
	j.tr.record("wal.commit", t0, t1, parent, seq)
	return err
}

// countingDecider counts shed decisions on their way to the shedder.
type countingDecider struct {
	inner     operator.Decider
	decisions atomic.Uint64
	drops     atomic.Uint64
}

// countingBatchingDecider keeps the BatchingDecider extension, so the
// operator batches decision counts exactly as it does without the
// wrapper; counts arrive once per batch through TallyDecisions.
type countingBatchingDecider struct {
	*countingDecider
	batched operator.BatchingDecider
}

// wrapDecider returns the wrapper to hand the operator (with every
// optional interface of inner) and its recorder.
func wrapDecider(inner operator.Decider) (operator.Decider, *countingDecider) {
	cd := &countingDecider{inner: inner}
	if b, ok := inner.(operator.BatchingDecider); ok {
		return &countingBatchingDecider{countingDecider: cd, batched: b}, cd
	}
	return cd, cd
}

func (d *countingDecider) Drop(t event.Type, pos, ws int) bool {
	drop := d.inner.Drop(t, pos, ws)
	d.decisions.Add(1)
	if drop {
		d.drops.Add(1)
	}
	return drop
}

func (d *countingBatchingDecider) DropCounted(t event.Type, pos, ws int) (bool, bool) {
	return d.batched.DropCounted(t, pos, ws)
}

func (d *countingBatchingDecider) TallyDecisions(decisions, drops uint64) {
	d.decisions.Add(decisions)
	d.drops.Add(drops)
	d.batched.TallyDecisions(decisions, drops)
}

// xController records the drop amount the overload detector commands.
type xController struct {
	inner sim.Controller
	mu    sync.Mutex
	sumX  float64
	n     int
}

func (c *xController) OnDecision(dec core.Decision) {
	if dec.Overloaded {
		c.mu.Lock()
		c.sumX += dec.X
		c.n++
		c.mu.Unlock()
	}
	c.inner.OnDecision(dec)
}

func (c *xController) meanX() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		return 0
	}
	return c.sumX / float64(c.n)
}

// emitTap pairs window closes with the complex events leaving Out():
// with one match per window and one operator per query, the k-th
// matching close of a query produces its k-th complex event.
type emitTap struct {
	tr      *tracer
	mu      sync.Mutex
	pending []time.Time
	waits   []float64 // us from window close to receipt from Out()
	count   uint64
}

// hook is the operator's OnWindowClose.
func (e *emitTap) hook(w *window.Window, matched []window.Entry) {
	if matched == nil {
		return
	}
	now := time.Now()
	e.mu.Lock()
	e.pending = append(e.pending, now)
	e.mu.Unlock()
}

// received notes one complex event taken from Out().
func (e *emitTap) received() {
	now := time.Now()
	e.mu.Lock()
	e.count++
	if len(e.pending) == 0 {
		e.mu.Unlock()
		return
	}
	closed := e.pending[0]
	e.pending = e.pending[1:]
	e.waits = append(e.waits, us(now.Sub(closed)))
	n := e.count
	e.mu.Unlock()
	e.tr.record("emit.out", closed, now, 0, n)
}
