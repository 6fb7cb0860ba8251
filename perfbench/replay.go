package main

import (
	"fmt"
	"syscall"
	"time"

	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/queries"
)

// The replay workload's dataset sizes: long enough that the pooled
// quality figures rest on about two thousand true complex events, so
// they vary little from seed to seed.
const (
	replayRTLSSeconds = 7200
	replayNYSEMinutes = 300
)

// replayRates are the overload factors R/th of the paper's R1 and R2.
var replayRates = []float64{1.2, 1.4}

// experiment is one query with its training result and evaluation
// stream.
type experiment struct {
	name  string
	cfg   harness.RunConfig // without OverloadFactor
	train []event.Event
	tr    *harness.TrainResult
}

// replaySetup generates both datasets from the seed and trains Q1 (RTLS)
// and Q2 (NYSE): the set-up a user of the harness pays before the first
// experiment. It returns the experiments and the time spent training.
func replaySetup(seed int64) ([]experiment, time.Duration, error) {
	rmeta, rtrain, reval, err := harness.RTLSWorkload(harness.Scale{RTLSSeconds: replayRTLSSeconds, Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	nmeta, ntrain, neval, err := harness.NYSEWorkload(harness.Scale{NYSEMinutes: replayNYSEMinutes, Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	q1, err := queries.Q1(rmeta, 4, pattern.SelectFirst, 15)
	if err != nil {
		return nil, 0, err
	}
	q2, err := queries.Q2(nmeta, 10, pattern.SelectFirst, 240)
	if err != nil {
		return nil, 0, err
	}
	exps := []experiment{
		{name: "Q1", cfg: harness.RunConfig{Query: q1, Eval: reval, Seed: seed, RecordLatency: true}, train: rtrain},
		{name: "Q2", cfg: harness.RunConfig{Query: q2, Eval: neval, Seed: seed, RecordLatency: true}, train: ntrain},
	}
	var trainTime time.Duration
	for i := range exps {
		t0 := time.Now()
		exps[i].tr, err = harness.Train(exps[i].cfg.Query, exps[i].train, 0, 0)
		trainTime += time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("train %s: %w", exps[i].name, err)
		}
	}
	return exps, trainTime, nil
}

// outcome is what one experiment produced; equal outcomes mean the
// replay decided identically.
type outcome struct {
	truth, fn, fp int
	samples, miss int // latency samples and those above LB
	shed          float64
}

func outcomeOf(res *harness.RunResult, bound event.Time) outcome {
	return outcome{
		truth:   res.Quality.Truth,
		fn:      res.Quality.FalseNegatives,
		fp:      res.Quality.FalsePositives,
		samples: res.Latency.Len(),
		miss:    res.Latency.ViolationCount(bound),
		shed:    res.ShedFraction,
	}
}

// replayBound is the harness's default latency bound LB.
const replayBound = event.Second

// runReplay is a timed run of the replay workload: the experiments
// repeat for the measured time; every repetition must decide exactly
// as the first, and the first must equal an independent
// harness.RunExperiment that trains from scratch.
func runReplay(o options) (*report, error) {
	r := newReport()
	var setups []float64
	var exps []experiment
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		e, _, err := replaySetup(o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		exps = e
	}
	r.set("setup_s", "s", median(setups))

	var first []outcome
	var firstRes []*harness.RunResult
	// Every repetition is timed on its own and the figures are medians
	// over repetitions, so a stall of the shared machine moves the
	// repetitions it falls in.
	var repRates, repCPU []float64
	var events int64
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < o.seconds; rep++ {
		cpu0 := selfCPU()
		t0 := time.Now()
		var n int64
		k := 0
		for _, ex := range exps {
			for _, rate := range replayRates {
				cfg := ex.cfg
				cfg.OverloadFactor = rate
				res, err := harness.EvalWithModel(cfg, ex.tr, harness.ShedESPICE)
				if err != nil {
					return nil, fmt.Errorf("%s R=%.1f: %w", ex.name, rate, err)
				}
				r.t.op(nil)
				// The truth pass and the shedding pass each replay the
				// evaluation stream once.
				n += 2 * int64(len(cfg.Eval))
				oc := outcomeOf(res, replayBound)
				if rep == 0 {
					first = append(first, oc)
					firstRes = append(firstRes, res)
				} else {
					r.t.check(oc == first[k], "%s R=%.1f repetition %d decided %+v, first %+v", ex.name, rate, rep, oc, first[k])
				}
				k++
			}
		}
		events += n
		repRates = append(repRates, float64(n)/time.Since(t0).Seconds())
		repCPU = append(repCPU, us(selfCPU()-cpu0)/float64(n))
	}

	// Reference: each experiment again through harness.RunExperiment,
	// which trains its own model.
	k := 0
	for _, ex := range exps {
		for _, rate := range replayRates {
			cfg := ex.cfg
			cfg.OverloadFactor = rate
			cfg.Train = ex.train
			res, err := harness.RunExperiment(cfg, harness.ShedESPICE)
			r.t.op(err)
			if err == nil {
				oc := outcomeOf(res, replayBound)
				r.t.check(oc == first[k], "%s R=%.1f decided %+v, reference %+v", ex.name, rate, first[k], oc)
			}
			k++
		}
	}

	r.set("throughput_ev_s", "1/s", median(repRates))
	r.set("cpu_us_per_ev", "us", median(repCPU))
	r.set("mem_peak_mb", "MiB", float64(selfPeakRSS())/(1<<20))
	setReplayQuality(r, exps, first, firstRes)
	r.linef("replay-shed: %d repetitions of %d experiments, %d events replayed, median %.0f ev/s",
		len(repRates), len(first), events, median(repRates))
	return r, nil
}

// setReplayQuality pools the experiments' quality and simulated latency
// into the end-to-end metrics.
func setReplayQuality(r *report, exps []experiment, ocs []outcome, res []*harness.RunResult) {
	var truth, fn, fp, miss, samples int
	var pooled metrics.LatencyTrace
	for k, oc := range ocs {
		ex := exps[k/len(replayRates)]
		rate := replayRates[k%len(replayRates)]
		truth += oc.truth
		fn += oc.fn
		fp += oc.fp
		miss += oc.miss
		samples += oc.samples
		pooled.Merge(&res[k].Latency)
		r.linef("%s R=%.1f: FN %.3f%% FP %.3f%% of %d true complex events, %.2f%% of memberships shed, %d of %d events over LB",
			ex.name, rate, pct(oc.fn, oc.truth), pct(oc.fp, oc.truth), oc.truth, 100*oc.shed, oc.miss, oc.samples)
	}
	latMS := func(p float64) float64 { return pooled.Percentile(p).Seconds() * 1e3 }
	p99 := pooled.Percentile(99)
	beyond := pooled.ViolationCount(p99)
	detected := truth - fn + fp
	r.set("recall_pct", "%", 100-pct(fn, truth))
	r.set("precision_pct", "%", 100*float64(truth-fn)/float64(max(detected, 1)))
	r.set("lb_met_pct", "%", 100-pct(miss, samples))
	r.set("lat_p50_ms", "ms", latMS(50))
	r.set("lat.p90_ms", "ms", latMS(90))
	r.set("lat.p99_ms", "ms", latMS(99))
	r.set("replay.fn_pct", "%", pct(fn, truth))
	r.set("replay.fp_pct", "%", pct(fp, truth))
	r.set("replay.lb_miss_pct", "%", pct(miss, samples))
	r.set("lat.samples", "count", float64(pooled.Len()))
	r.linef("pooled: FN %.3f%% FP %.3f%% of %d; simulated latency p50 %.3f ms p90 %.3f ms p99 %.3f ms over %d events, %.3f%% over LB",
		pct(fn, truth), pct(fp, truth), truth, latMS(50), latMS(90), latMS(99), pooled.Len(), pct(miss, samples))
	r.t.check(beyond >= 10, "p99 has only %d samples beyond it", beyond)
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// selfCPU is the benchmark process's user+system CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSS is the benchmark process's peak resident set in bytes.
func selfPeakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}
