package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/sim"
)

// The harness's defaults for a RunConfig that leaves them zero.
const (
	harnessThroughput = 1000
	harnessF          = 0.8
)

// processSampleEvery is the stride of the op.Process calls timed for
// operator.process_ns.
const processSampleEvery = 16

// traceReplay is the traced run of the replay workload. Each experiment
// is assembled from the public pieces harness.EvalWithModel uses —
// sim.ReplayUnshed for the truth, operator, shedder, detector and
// sim.Run for the overloaded pass — with the shedder behind a counting
// Decider and the controller behind a recorder. Its quality must equal
// harness.EvalWithModel's.
func traceReplay(o options) (*report, error) {
	r := newReport()
	tr := newTracer()
	t0 := time.Now()
	exps, train, err := replaySetup(o.seed)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", "s", time.Since(t0).Seconds())

	var truthTime, shedTime time.Duration
	var decisions, drops uint64
	var xsum float64
	var ops operator.Stats
	var memberships, shed uint64
	var ocs []outcome
	var results []*harness.RunResult
	var processNS []float64
	var events int64
	var emitted int
	cpu0 := selfCPU()
	start := time.Now()
	for _, ex := range exps {
		for _, rate := range replayRates {
			cfg := ex.cfg
			cfg.OverloadFactor = rate
			ref, err := harness.EvalWithModel(cfg, ex.tr, harness.ShedESPICE)
			r.t.op(err)
			if err != nil {
				continue
			}

			truthOp, err := ex.newOp(nil)
			if err != nil {
				return nil, err
			}
			a := time.Now()
			truth, err := sim.ReplayUnshed(cfg.Eval, truthOp)
			b := time.Now()
			if err != nil {
				return nil, err
			}
			truthTime += b.Sub(a)
			tr.record("replay.truth", a, b, 0, uint64(len(ocs)+1))
			ts := truthOp.Stats()
			factor := float64(ts.Memberships) / float64(max(ts.EventsProcessed, 1))

			shedder, err := core.NewShedder(ex.tr.Model)
			if err != nil {
				return nil, err
			}
			dec, counter := wrapDecider(shedder)
			ctrl := &xController{inner: harness.ESPICEController{S: shedder}}
			evalOp, err := ex.newOp(dec)
			if err != nil {
				return nil, err
			}
			det, err := core.NewOverloadDetector(core.DetectorConfig{LatencyBound: replayBound, F: harnessF})
			if err != nil {
				return nil, err
			}
			a = time.Now()
			res, err := sim.Run(sim.Config{
				Rate:             rate * harnessThroughput,
				Throughput:       harnessThroughput,
				MembershipFactor: factor,
				Detector:         det,
				RecordLatency:    true,
			}, cfg.Eval, evalOp, ctrl)
			b = time.Now()
			if err != nil {
				return nil, err
			}
			shedTime += b.Sub(a)
			tr.record("replay.shed", a, b, 0, uint64(len(ocs)+1))
			events += 2 * int64(len(cfg.Eval))

			st := evalOp.Stats()
			rr := &harness.RunResult{
				Quality: metrics.CompareQuality(truth, res.Complex),
				Latency: res.Latency,
			}
			if st.Memberships > 0 {
				rr.ShedFraction = float64(st.MembershipsShed) / float64(st.Memberships)
			}
			oc := outcomeOf(rr, replayBound)
			r.t.check(oc == outcomeOf(ref, replayBound), "%s R=%.1f traced replay decided %+v, harness %+v",
				ex.name, rate, oc, outcomeOf(ref, replayBound))
			r.t.check(counter.decisions.Load() == shedder.Decisions(), "decider wrapper counted %d decisions, shedder %d",
				counter.decisions.Load(), shedder.Decisions())
			ocs = append(ocs, oc)
			results = append(results, rr)
			decisions += counter.decisions.Load()
			drops += counter.drops.Load()
			xsum += ctrl.meanX()
			memberships += st.Memberships
			shed += st.MembershipsShed
			emitted += len(res.Complex)
			ops.EventsProcessed += st.EventsProcessed
			ops.Memberships += st.Memberships
			ops.WindowsClosed += st.WindowsClosed
			ops.ComplexEvents += st.ComplexEvents

			// Sampled op.Process cost on an unshed operator.
			op, err := ex.newOp(nil)
			if err != nil {
				return nil, err
			}
			for i, e := range cfg.Eval {
				if i%processSampleEvery != 0 {
					op.Process(e)
					continue
				}
				a := time.Now()
				op.Process(e)
				processNS = append(processNS, float64(time.Since(a).Nanoseconds()))
			}
		}
	}
	elapsed := time.Since(start)
	cpu := selfCPU() - cpu0
	if len(ocs) == 0 {
		return r, nil
	}
	setReplayQuality(r, exps, ocs, results)
	r.set("throughput_ev_s", "1/s", float64(events)/elapsed.Seconds())
	r.set("cpu_us_per_ev", "us", us(cpu)/float64(events))
	r.set("mem_peak_mb", "MiB", float64(selfPeakRSS())/(1<<20))
	r.markTraced()
	r.linef("traced run: throughput and cpu include the sampled op.Process pass and the harness reference")

	r.set("replay.truth_s", "s", truthTime.Seconds())
	r.set("replay.shed_s", "s", shedTime.Seconds())
	r.set("replay.shed_fraction", "ratio", float64(shed)/float64(max(memberships, 1)))
	r.set("operator.process_ns", "ns", percentile(processNS, 0.5).Value)
	setCore(r, decisions, drops, xsum/float64(len(ocs)), train)
	setWindows(r, ops)
	r.set("emit.complex_events", "count", float64(emitted))
	// sim.Run returns complex events directly; there is no Out() channel
	// to wait on in the replay.
	r.set("emit.out_wait_us_p99", "us", 0)
	for _, n := range []string{
		"transport.credit_wait_ms", "transport.events_per_frame", "transport.retries", "transport.throttle_wait_ms",
		"sink.busy_us_p50", "sink.busy_us_p99", "sink.busy_share", "sink.events_per_call",
		"wal.append_us_p50", "wal.commit_us_p50", "wal.commit_us_p99", "wal.appends_per_sync", "wal.bytes_per_event",
		"engine.fanout", "engine.budget_drop", "runtime.queue_len_p50", "runtime.queue_len_max", "gen.late_ms_p99",
	} {
		r.set(n, unitOf(n), 0)
	}
	if err := writeTrace(tr, o, r); err != nil {
		return nil, err
	}
	return r, nil
}

// newOp builds the experiment's operator, shedding through dec when it
// is not nil.
func (ex experiment) newOp(dec operator.Decider) (*operator.Operator, error) {
	return operator.New(operator.Config{Window: ex.cfg.Query.Window, Patterns: ex.cfg.Query.Patterns, Shedder: dec})
}
