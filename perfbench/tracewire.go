package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/operator"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/wal"
)

// tracedSUT is the wire workload's server assembled in-process from the
// layers' public constructors, configured as espice-serve configures
// itself for the workload's flags, with timing wrappers at the seams.
type tracedSUT struct {
	srv     *transport.Server
	pipe    *runtime.Pipeline
	eng     *engine.Engine
	handles []*engine.Query
	wlog    *wal.Log

	sink    *timedSink
	journal *timedJournal // nil without a WAL
	decider *countingDecider
	shedder *core.Shedder
	ctrl    *xController
	taps    []*emitTap
	train   time.Duration
}

// buildTraced mirrors espice-serve's buildServe for the two wire
// deployments.
func buildTraced(sp wireSpec, seed int64, dir string, tr *tracer) (*tracedSUT, error) {
	meta, events, err := datasets.GenerateRTLS(datasets.RTLSConfig{DurationSec: rtlsSeconds, Seed: seed})
	if err != nil {
		return nil, err
	}
	ts := &tracedSUT{}
	var sink transport.Sink
	bound := event.Time(sp.bound.Microseconds())
	if !sp.durable {
		q := sp.conns[0].query
		t0 := time.Now()
		trn, err := harness.Train(q, events, 0, 0)
		ts.train = time.Since(t0)
		if err != nil {
			return nil, err
		}
		if ts.shedder, err = core.NewShedder(trn.Model); err != nil {
			return nil, err
		}
		det, err := core.NewOverloadDetector(core.DetectorConfig{LatencyBound: bound, F: 0.7})
		if err != nil {
			return nil, err
		}
		var dec operator.Decider
		dec, ts.decider = wrapDecider(ts.shedder)
		tap := &emitTap{tr: tr}
		ts.taps = []*emitTap{tap}
		ts.ctrl = &xController{inner: harness.ESPICEController{S: ts.shedder}}
		ts.pipe, err = runtime.New(runtime.Config{
			Operator: operator.Config{
				Window:        q.Window,
				Patterns:      q.Patterns,
				Shedder:       dec,
				OnWindowClose: tap.hook,
			},
			EstimateRates:      true,
			PollInterval:       5 * time.Millisecond,
			Shards:             1,
			LatencySampleEvery: 256,
			Detector:           det,
			Controller:         ts.ctrl,
		})
		if err != nil {
			return nil, err
		}
		sink = ts.pipe
	} else {
		quotas := map[string]engine.TenantQuota{}
		for _, c := range sp.conns {
			quotas[c.tenant] = engine.TenantQuota{Rate: sp.quota().Rate, Weight: 1}
		}
		ts.eng, err = engine.New(engine.Config{PollInterval: 5 * time.Millisecond, LatencyBound: bound, F: 0.7, Tenants: quotas})
		if err != nil {
			return nil, err
		}
		for _, c := range sp.conns {
			t0 := time.Now()
			trn, err := harness.Train(c.query, engine.FilterStream(c.query, events), 0, 0)
			ts.train += time.Since(t0)
			if err != nil {
				return nil, err
			}
			tap := &emitTap{tr: tr}
			ts.taps = append(ts.taps, tap)
			h, err := ts.eng.Register(engine.QueryConfig{
				Query: c.query, Shards: 1, OnWindowClose: tap.hook, Tenant: c.tenant, Model: trn.Model,
			})
			if err != nil {
				return nil, err
			}
			ts.handles = append(ts.handles, h)
		}
		sink = ts.eng
	}
	cfg := transport.ServerConfig{Registry: meta.Registry, Window: sp.credit, Logf: log.Printf}
	if cfg.Window == 0 {
		cfg.Window = transport.DefaultWindow
	}
	cfg.Sink, ts.sink = wrapSink(sink, tr, sp.batch)
	if sp.durable {
		auth := map[string]transport.TenantAuth{}
		for _, c := range sp.conns {
			auth[c.token] = transport.TenantAuth{Tenant: c.tenant, Quota: sp.quota()}
		}
		cfg.Authenticate = func(token []byte) (transport.TenantAuth, error) {
			a, ok := auth[string(token)]
			if !ok {
				return transport.TenantAuth{}, fmt.Errorf("unknown tenant token")
			}
			return a, nil
		}
		ts.wlog, err = wal.Open(wal.Config{Dir: dir, FailurePolicy: wal.FailStop})
		if err != nil {
			return nil, err
		}
		// The log is fresh; recovery only arms it for appends.
		if _, err := ts.wlog.Recover(func(wal.Record) error { return fmt.Errorf("fresh log holds a record") }); err != nil {
			return nil, err
		}
		cfg.Journal, ts.journal = wrapJournal(walJournal{ts.wlog}, tr, sp.batch/sp.credit)
	}
	cfg.StatsJSON = func() []byte { return []byte(fmt.Sprintf(`{"processed":%d}`, ts.processed())) }
	if ts.srv, err = transport.NewServer(cfg); err != nil {
		return nil, err
	}
	return ts, nil
}

func (ts *tracedSUT) processed() uint64 {
	if ts.pipe != nil {
		return ts.pipe.Stats().Processed
	}
	var n uint64
	for _, h := range ts.handles {
		n += h.Stats().Pipeline.Processed
	}
	return n
}

// operatorStats sums the operator counters over every pipeline.
func (ts *tracedSUT) operatorStats() operator.Stats {
	if ts.pipe != nil {
		return ts.pipe.Stats().Operator
	}
	var sum operator.Stats
	for _, h := range ts.handles {
		s := h.Stats().Pipeline.Operator
		sum.EventsProcessed += s.EventsProcessed
		sum.Memberships += s.Memberships
		sum.MembershipsKept += s.MembershipsKept
		sum.MembershipsShed += s.MembershipsShed
		sum.WindowsClosed += s.WindowsClosed
		sum.ComplexEvents += s.ComplexEvents
		sum.WindowsWithMatch += s.WindowsWithMatch
	}
	return sum
}

// serve runs the stream and the output collectors, accepts
// connections on ln and returns the shutdown function, which drains in
// espice-serve's order: the wire, the stream, the collectors, the log.
func (ts *tracedSUT) serve(ln net.Listener) func() error {
	runDone := make(chan error, 1)
	var collect sync.WaitGroup
	outs := []<-chan operator.ComplexEvent{}
	if ts.pipe != nil {
		go func() { runDone <- ts.pipe.Run(context.Background()) }()
		outs = append(outs, ts.pipe.Out())
	} else {
		go func() { runDone <- ts.eng.Run(context.Background()) }()
		for _, h := range ts.handles {
			outs = append(outs, h.Out())
		}
	}
	for i, out := range outs {
		collect.Add(1)
		go func(tap *emitTap, out <-chan operator.ComplexEvent) {
			defer collect.Done()
			for range out {
				tap.received()
			}
		}(ts.taps[i], out)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- ts.srv.Serve(ln) }()
	return func() error {
		err := ts.srv.Shutdown(0)
		<-serveDone
		if ts.pipe != nil {
			ts.pipe.CloseInput()
		} else {
			ts.eng.CloseInput()
		}
		if rerr := <-runDone; err == nil {
			err = rerr
		}
		collect.Wait()
		if ts.wlog != nil {
			if cerr := ts.wlog.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
}

// poller samples the stream's queue and the engine's shedding budget
// through the public Stats() while the load runs.
type poller struct {
	stop    chan struct{}
	done    chan struct{}
	queue   []float64
	maxDrop float64
}

func (ts *tracedSUT) poll(every time.Duration) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			if ts.pipe != nil {
				p.queue = append(p.queue, float64(ts.pipe.Stats().QueueLen))
				continue
			}
			es := ts.eng.Stats()
			q := es.QueueLen
			for _, qs := range es.Queries {
				q += qs.Pipeline.QueueLen
			}
			p.queue = append(p.queue, float64(q))
			p.maxDrop = max(p.maxDrop, es.DropRate)
		}
	}()
	return p
}

func (p *poller) finish() {
	close(p.stop)
	<-p.done
}

// traceWire is the traced run of a wire workload: the same producers
// against the in-process server, with spans and counts at the seams.
func traceWire(sp wireSpec, o options) (*report, error) {
	dir, err := os.MkdirTemp(o.work, sp.name+"-traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	t0 := time.Now()
	ts, err := buildTraced(sp, o.seed, dir, tr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	shutdown := ts.serve(ln)
	p := ts.poll(5 * time.Millisecond)
	ld, driveErr := sp.drive(ln.Addr().String(), o.seconds, func() (time.Duration, error) { return selfCPU(), nil })
	p.finish()
	srvStats := ts.srv.Stats()
	stopErr := shutdown()
	if ld == nil {
		return nil, driveErr
	}

	r := newReport()
	r.t.op(driveErr)
	r.t.op(stopErr)
	ops := ts.operatorStats()
	var emitted uint64
	for _, tap := range ts.taps {
		emitted += tap.count
	}
	final := serverDoc{
		Submitted:     ts.sink.events,
		Processed:     ts.processed(),
		Memberships:   ops.Memberships,
		Shed:          ops.MembershipsShed,
		ComplexEvents: emitted,
	}
	if sp.durable {
		final.Ledger = &ts.sink.ledger
	}
	if err := sp.judge(r, ld, final); err != nil {
		return nil, err
	}
	r.set("setup_s", "s", setup.Seconds())
	r.set("mem_peak_mb", "MiB", float64(selfPeakRSS())/(1<<20))
	r.markTraced()
	r.linef("traced run: cpu_us_per_ev and mem_peak_mb include the in-process producer")

	elapsed := ld.drained.Sub(ld.start)
	var creditWait time.Duration
	var frames, retries uint64
	for _, cs := range ld.clients {
		creditWait += cs.CreditWait
		frames += cs.Flushes
		retries += cs.Redials + cs.Retransmits
	}
	var throttle time.Duration
	for _, t := range srvStats.Tenants {
		throttle += t.ThrottleWait
	}
	r.set("transport.credit_wait_ms", "ms", ms(creditWait))
	r.set("transport.events_per_frame", "count", float64(ld.sent)/float64(max(frames, 1)))
	r.set("transport.retries", "count", float64(retries))
	r.set("transport.throttle_wait_ms", "ms", ms(throttle))

	var busyTotal float64
	for _, b := range ts.sink.busy {
		busyTotal += b
	}
	r.set("sink.busy_us_p50", "us", percentile(ts.sink.busy, 0.5).Value)
	r.set("sink.busy_us_p99", "us", percentile(ts.sink.busy, 0.99).Value)
	r.set("sink.busy_share", "ratio", busyTotal/us(elapsed))
	r.set("sink.events_per_call", "count", float64(ts.sink.events)/float64(max(len(ts.sink.busy), 1)))

	var walStats wal.Stats
	var appendP50, commitP50, commitP99 float64
	if ts.journal != nil {
		walStats = ts.wlog.Stats()
		appendP50 = percentile(ts.journal.appendUS, 0.5).Value
		commitP50 = percentile(ts.journal.commitUS, 0.5).Value
		commitP99 = percentile(ts.journal.commitUS, 0.99).Value
	}
	r.set("wal.append_us_p50", "us", appendP50)
	r.set("wal.commit_us_p50", "us", commitP50)
	r.set("wal.commit_us_p99", "us", commitP99)
	r.set("wal.appends_per_sync", "ratio", float64(walStats.Appends)/float64(max(walStats.Syncs, 1)))
	r.set("wal.bytes_per_event", "B", float64(walStats.AppendedBytes)/float64(max(ld.sent, 1)))

	fanout := 0.0
	if ts.eng != nil {
		es := ts.eng.Stats()
		fanout = float64(es.Delivered) / float64(max(es.Submitted, 1))
	}
	r.set("engine.fanout", "ratio", fanout)
	r.set("engine.budget_drop", "1/s", p.maxDrop)
	r.set("runtime.queue_len_p50", "count", percentile(p.queue, 0.5).Value)
	r.set("runtime.queue_len_max", "count", percentile(p.queue, 1).Value)

	// The engine builds its shedders from the model internally, so its
	// decisions have no seam outside the program; they report 0 there.
	var decisions, drops uint64
	commanded := 0.0
	if ts.decider != nil {
		decisions, drops = ts.decider.decisions.Load(), ts.decider.drops.Load()
		commanded = ts.ctrl.meanX()
		r.t.check(decisions == ts.shedder.Decisions(), "decider wrapper counted %d decisions, shedder %d", decisions, ts.shedder.Decisions())
	}
	setCore(r, decisions, drops, commanded, ts.train)
	setWindows(r, ops)
	var waits []float64
	for _, tap := range ts.taps {
		waits = append(waits, tap.waits...)
	}
	r.set("emit.complex_events", "count", float64(emitted))
	r.set("emit.out_wait_us_p99", "us", percentile(waits, 0.99).Value)
	for _, n := range []string{"replay.truth_s", "replay.shed_s", "replay.shed_fraction", "replay.fn_pct", "replay.fp_pct", "replay.lb_miss_pct", "operator.process_ns"} {
		r.set(n, unitOf(n), 0)
	}
	if err := writeTrace(tr, o, r); err != nil {
		return nil, err
	}
	return r, nil
}

func setCore(r *report, decisions, drops uint64, commanded float64, train time.Duration) {
	r.set("core.decisions", "count", float64(decisions))
	r.set("core.drop_ratio", "ratio", float64(drops)/float64(max(decisions, 1)))
	r.set("core.commanded_x", "count", commanded)
	r.set("core.train_s", "s", train.Seconds())
}

func setWindows(r *report, ops operator.Stats) {
	r.set("window.memberships_per_event", "ratio", float64(ops.Memberships)/float64(max(ops.EventsProcessed, 1)))
	r.set("window.closes", "count", float64(ops.WindowsClosed))
	r.set("pattern.matches_per_close", "ratio", float64(ops.ComplexEvents)/float64(max(ops.WindowsClosed, 1)))
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// writeTrace stores the run's spans next to the build outputs.
func writeTrace(tr *tracer, o options, r *report) error {
	path := filepath.Join(o.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	r.linef("trace: %d spans written to %s (%d not kept)", len(tr.spans), path, tr.dropped)
	return nil
}
