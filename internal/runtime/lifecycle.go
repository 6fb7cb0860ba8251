package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/operator"
	"repro/internal/window"
)

// LifecycleConfig configures the online model lifecycle: instead of
// handing the pipeline a frozen, offline-trained model, the caller hands
// it a training policy. The pipeline then taps its own window closes to
// train the utility model in flight, swaps it into every shedder once
// warm, and — with Drift set — retrains and re-swaps when the input
// distribution shifts away from the model.
type LifecycleConfig struct {
	// Types is M, the registry size the utility table is dimensioned for
	// (required).
	Types int
	// N is the logical window size of the utility table. 0 derives it
	// from the pipeline's window spec (Count, then SizeHint); if neither
	// is set the builder defers sizing to the average observed window
	// size at build time.
	N int
	// BinSize aggregates neighboring positions per table cell (0/1 =
	// off), exactly as in offline training.
	BinSize int
	// SampleEvery feeds every k-th closed window to the trainer and the
	// drift detector; 0 or 1 samples every close. Larger values bound
	// the tap cost on dense window streams.
	SampleEvery int
	// WarmupWindows is how many sampled windows (including at least one
	// with a complex event) must accumulate before a model is built and
	// swapped in. Default 64.
	WarmupWindows int
	// MinRetrainInterval throttles how often a rebuilt model may be
	// swapped in. Default 1s.
	MinRetrainInterval time.Duration
	// Drift, when non-nil, arms drift-triggered retraining: a
	// Page-Hinkley detector over the model-mismatch fraction raises an
	// alarm, the lifecycle discards the statistics gathered under the
	// old distribution, re-collects WarmupWindows fresh ones and swaps
	// the retrained model in. Nil leaves only explicit Retrain calls.
	Drift *core.DriftConfig
	// Interval is the supervisor poll period. Default 20ms.
	Interval time.Duration
}

func (c *LifecycleConfig) applyDefaults() {
	if c.SampleEvery < 1 {
		c.SampleEvery = 1
	}
	if c.WarmupWindows <= 0 {
		c.WarmupWindows = 64
	}
	if c.MinRetrainInterval <= 0 {
		c.MinRetrainInterval = time.Second
	}
	if c.Interval <= 0 {
		c.Interval = 20 * time.Millisecond
	}
}

// LifecycleStats is a snapshot of the lifecycle counters.
type LifecycleStats struct {
	// Trained reports whether a trained model is currently published to
	// the shedders.
	Trained bool
	// Collecting reports whether the lifecycle is gathering statistics
	// toward the next model (initial warm-up or post-alarm recollection).
	Collecting bool
	// WindowsSampled counts closed windows forwarded to the trainer
	// across all taps (lifetime).
	WindowsSampled uint64
	// Builds counts models built and swapped into the shedders (the
	// initial training plus every retrain).
	Builds uint64
	// DriftAlarms counts drift-detector alarms acted upon.
	DriftAlarms uint64
	// MismatchMean is the drift detector's running model-mismatch mean
	// (0 when drift detection is off or not yet armed).
	MismatchMean float64
	// ModelWindows and ModelMatches echo the training coverage of the
	// currently published model (0 until trained).
	ModelWindows int
	ModelMatches int
}

// Lifecycle supervises the online model lifecycle of one pipeline: its
// taps accumulate per-shard training statistics without contention, and
// its supervisor step merges them, builds models and swaps them into
// every registered shedder in lockstep. Construct it through
// runtime.Config.Lifecycle; tests may drive step directly.
type Lifecycle struct {
	cfg  LifecycleConfig
	bcfg core.ModelBuilderConfig

	shedders []*core.Shedder
	taps     []*operator.FeedbackTap

	retrainReq atomic.Bool

	mu         sync.Mutex
	drift      *core.DriftDetector
	model      *core.Model // last model this lifecycle built, nil before
	collecting bool
	lastSwap   time.Time

	builds      atomic.Uint64
	driftAlarms atomic.Uint64
}

// newLifecycle validates the configuration and builds a supervisor over
// the given shedders. spec resolves N when the config leaves it 0.
func newLifecycle(cfg LifecycleConfig, shedders []*core.Shedder, spec window.Spec) (*Lifecycle, error) {
	cfg.applyDefaults()
	if cfg.Types <= 0 {
		return nil, fmt.Errorf("runtime: LifecycleConfig.Types must be > 0, got %d", cfg.Types)
	}
	if len(shedders) == 0 {
		return nil, fmt.Errorf("runtime: lifecycle needs at least one core.Shedder " +
			"(set Operator.Shedder or ShardDeciders to shedders over an untrained model)")
	}
	n := cfg.N
	if n == 0 {
		n = SpecWindowSize(spec)
	}
	l := &Lifecycle{
		cfg:      cfg,
		bcfg:     core.ModelBuilderConfig{Types: cfg.Types, N: n, BinSize: cfg.BinSize},
		shedders: shedders,
	}
	// Validate the builder configuration once, up front.
	if _, err := core.NewModelBuilder(l.bcfg); err != nil {
		return nil, err
	}
	// A pre-trained starting model (the shedders were built over one)
	// arms drift detection immediately; an untrained start collects
	// toward the first model.
	initial := shedders[0].Model()
	if initial != nil && initial.Trained() {
		l.model = initial
		if cfg.Drift != nil {
			d, err := core.NewDriftDetector(initial, *cfg.Drift)
			if err != nil {
				return nil, err
			}
			l.drift = d
		}
	} else {
		l.collecting = true
	}
	return l, nil
}

// newTap creates and registers one feedback tap; the pipeline gives one
// to each window-closing goroutine, one per shard.
// All taps must be created before Run starts the supervisor.
func (l *Lifecycle) newTap() (*operator.FeedbackTap, error) {
	mb, err := core.NewModelBuilder(l.bcfg)
	if err != nil {
		return nil, err
	}
	t, err := operator.NewFeedbackTap(mb, l.cfg.SampleEvery)
	if err != nil {
		return nil, err
	}
	t.SetDrift(l.drift)
	l.taps = append(l.taps, t)
	return t, nil
}

// Retrain requests an explicit model rebuild from the statistics
// accumulated since the last swap: the next supervisor step rebuilds and
// swaps as soon as the warm-up threshold is met (immediately, if it
// already is). Unlike a drift alarm, accumulated statistics are kept.
func (l *Lifecycle) Retrain() { l.retrainReq.Store(true) }

// Stats returns a snapshot of the lifecycle counters.
func (l *Lifecycle) Stats() LifecycleStats {
	st := LifecycleStats{
		Builds:      l.builds.Load(),
		DriftAlarms: l.driftAlarms.Load(),
	}
	for _, t := range l.taps {
		st.WindowsSampled += t.WindowsSampled()
	}
	l.mu.Lock()
	st.Collecting = l.collecting
	if l.model != nil && l.model.Trained() {
		st.Trained = true
		st.ModelWindows = l.model.Windows()
		st.ModelMatches = l.model.Matches()
	}
	drift := l.drift
	l.mu.Unlock()
	if drift != nil {
		st.MismatchMean = drift.MismatchMean()
	}
	return st
}

// Model returns the model most recently built and swapped in by this
// lifecycle (nil before the first build).
func (l *Lifecycle) Model() *core.Model {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.model
}

// maxStaleWindows bounds how many windows a tap builder may accumulate
// while the lifecycle is stable (no rebuild pending): enough to satisfy
// a sudden explicit Retrain many times over, small enough to bound
// deferred-mode buffering.
func (l *Lifecycle) maxStaleWindows() int {
	if cap := 16 * l.cfg.WarmupWindows; cap > 1024 {
		return cap
	}
	return 1024
}

// SpecWindowSize resolves a windowing policy's nominal size in events:
// the count-window size, else the time-window size hint, else 0. The
// lifecycle, the engine's untrained placeholder models and the budget's
// per-window cost estimate all share this resolution so they never
// disagree about a query's coordinate system.
func SpecWindowSize(spec window.Spec) int {
	switch {
	case spec.Mode == window.ModeCount && spec.Count > 0:
		return spec.Count
	case spec.SizeHint > 0:
		return spec.SizeHint
	default:
		return 0
	}
}

// step is one supervision tick: act on a drift alarm or an explicit
// retrain request, and build-and-swap once the warm-up threshold is met.
// It reports whether a model was swapped in.
func (l *Lifecycle) step(now time.Time) bool {
	forced := l.retrainReq.Swap(false)
	l.mu.Lock()
	defer l.mu.Unlock()

	if !l.collecting {
		drifted := l.drift != nil && l.drift.Drifted()
		if !drifted && !forced {
			// Stable: keep the accumulated statistics fresh but bounded.
			// Deferred-mode builders (N unresolved) buffer window copies,
			// so an uncapped stable phase would grow without limit; a
			// rolling restart also means an explicit Retrain rebuilds
			// from *recent* traffic rather than the whole history.
			for _, t := range l.taps {
				if w, _ := t.BuilderStats(); w > l.maxStaleWindows() {
					t.ResetBuilder()
				}
			}
			return false
		}
		if drifted {
			l.driftAlarms.Add(1)
			// Statistics gathered under the drifted-away-from
			// distribution would dilute the retrained model; restart
			// collection from the post-shift stream. An explicit Retrain
			// keeps them — the operator asserts they are representative.
			for _, t := range l.taps {
				t.ResetBuilder()
			}
		}
		l.collecting = true
		// Fall through: a forced retrain may already be warm.
	}

	var windows, matches int
	for _, t := range l.taps {
		w, m := t.BuilderStats()
		windows += w
		matches += m
	}
	if windows < l.cfg.WarmupWindows || matches == 0 {
		return false
	}
	if !l.lastSwap.IsZero() && now.Sub(l.lastSwap) < l.cfg.MinRetrainInterval {
		return false
	}

	merged, err := core.NewModelBuilder(l.bcfg)
	if err != nil {
		return false
	}
	for _, t := range l.taps {
		if err := t.DrainInto(merged); err != nil {
			return false
		}
	}
	model, err := merged.Build()
	if err != nil {
		return false
	}
	for _, s := range l.shedders {
		// SwapModel only fails when CDT derivation does; the shedders
		// share the partitioning-bearing state they were configured
		// with, so a failure here would repeat on every shedder.
		if err := s.SwapModel(model); err != nil {
			return false
		}
	}
	l.model = model
	l.lastSwap = now
	l.collecting = false
	l.builds.Add(1)

	// Swap-then-rearm: point the drift detector at the new model and
	// clear its statistic so the next alarm measures the new model.
	if l.cfg.Drift != nil {
		if l.drift == nil {
			if d, derr := core.NewDriftDetector(model, *l.cfg.Drift); derr == nil {
				l.drift = d
				for _, t := range l.taps {
					t.SetDrift(d)
				}
			}
		} else {
			_ = l.drift.Reset(model)
		}
	}
	return true
}

// run drives step on the configured interval until stop closes; the
// pipeline starts it alongside the detector loop.
func (l *Lifecycle) run(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(l.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			// One final step so an end-of-stream Retrain request (or a
			// warm-up crossed in the last interval) is not lost.
			l.step(time.Now())
			return
		case now := <-ticker.C:
			l.step(now)
		}
	}
}
