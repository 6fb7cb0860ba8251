// Package runtime hosts a live, goroutine-based deployment of the eSPICE
// architecture (Figure 1): submitted events are routed into windows and
// handed to operator shards behind bounded queues, and a detector
// goroutine periodically estimates input rate and operator throughput,
// evaluates the overload condition and commands the load shedder.
//
// There is one execution path for every shard count, and no router
// goroutine: SubmitBatch itself runs the windowing policy (under one
// partitioner mutex, so positions and window identities stay
// deterministic) and streams compiled op batches — one event op per
// (event, owning shard) — to the shards. Windows are assigned to shards
// as they open, and each shard owns its windows outright: open,
// membership add, shed decision, close, matching and pool recycling all
// happen on the shard goroutine behind its own bounded queue. Closed-
// window results carry a monotonic epoch (the global close order), and
// an epoch merge stage re-serializes them, so the
// output equals an operator.Operator replay of the stream for any shard
// count while the per-membership processing cost spreads across the
// shards. One overload detector observes the aggregate input rate and
// the summed per-shard throughput and commands all shedders in
// lockstep.
//
// The runtime mirrors the discrete-event simulator (internal/sim) on real
// clocks and channels; the simulator is the reproducible instrument for
// experiments, the runtime is the deployment surface the examples use.
package runtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/window"
)

// Config assembles a live pipeline.
type Config struct {
	// Operator configuration (window, patterns, shedder decider).
	Operator operator.Config
	// Detector and Controller enable load shedding; both nil disables it.
	Detector   *core.OverloadDetector
	Controller sim.Controller
	// EstimateRates keeps the input-rate and throughput estimators running
	// even without a Detector, so an external supervisor (e.g. the
	// multi-query engine's global shedding budget) can read
	// Stats().InputRate and Stats().Throughput. Implied by Detector.
	EstimateRates bool
	// PollInterval is the detector period (default 10ms).
	PollInterval time.Duration
	// QueueCap bounds the backlog in events, however the producers batch
	// them: each shard queues at most its even share (QueueCap/Shards,
	// rounded up) of the events staged to it, and Submit and SubmitBatch
	// block while the owning shard's share is full (backpressure). An
	// empty queue admits any one batch, so a batch staged beyond the
	// share still passes. Default 1 << 16.
	QueueCap int
	// ProcessingDelay adds an artificial cost per kept membership,
	// letting examples provoke overload on small machines; a shard
	// sleeps once per event for all its kept memberships. Zero means
	// full speed.
	ProcessingDelay time.Duration
	// OutBuffer is the complex-event channel capacity (default 1024).
	OutBuffer int
	// LatencySampleEvery records one end-to-end latency sample per this
	// many processed events (default 1: every event). Whatever the
	// initial stride, the trace is hard-bounded: once it reaches
	// maxLatencySamples the pipeline halves it (dropping every second
	// sample) and doubles the stride, so an indefinitely running ingest
	// server keeps a uniformly spread, fixed-memory trace. Percentiles
	// remain meaningful under uniform 1-in-N sampling; raising the
	// initial stride just spends less hot-path time on clock reads.
	LatencySampleEvery int
	// Shards is the number of operator shard goroutines (default 1).
	// Every shard count runs the same path; values above 1 spread
	// per-membership processing across goroutines, and complex events
	// are emitted in window-close order either way. The
	// Operator.OnWindowClose hook runs on the shard goroutines — one call
	// at a time per shard, but concurrently across shards when Shards > 1
	// — so a hook shared by several shards must synchronize its own
	// state. Windows are recycled shard-locally right after the hook
	// returns.
	Shards int
	// ShardDeciders optionally installs one shedder per shard; its length
	// must equal Shards. When nil, every shard shares Operator.Shedder
	// (safe for core.Shedder, whose state is swapped atomically).
	ShardDeciders []operator.Decider
	// StealThreshold tunes window work stealing: when
	// the most-backlogged shard's staged-membership backlog exceeds the
	// least-loaded shard's by more than this many memberships, the
	// partitioner reassigns an open (not-yet-closing) window from the
	// former to the latter — ownership, buffered state and pool entry
	// move to the thief, and all future memberships of the window follow
	// (see partition.go). Complex-event output is byte-identical with
	// stealing on or off: window identities, positions and close epochs
	// are decided by the partitioner's tracker either way. 0 selects the
	// default (2048 memberships); negative disables stealing. A single
	// shard has no one to steal from.
	StealThreshold int
	// OnPanic, when non-nil, is called once — from the goroutine that
	// panicked, right as the pipeline's failed flag trips — when a
	// processing path panics (guard.go). The pipeline then drains
	// without processing and Run returns the *PanicError; the callback
	// lets a supervisor (the multi-query engine) quarantine the query
	// without polling. It must not call back into the pipeline.
	OnPanic func(*PanicError)
	// Lifecycle enables the online model lifecycle: the pipeline samples
	// its own window closes into an in-flight model builder, builds the
	// utility model once warm, and swaps it into every *core.Shedder
	// found in Operator.Shedder / ShardDeciders in lockstep — retraining
	// on drift alarms (Lifecycle.Drift) or explicit Retrain calls. The
	// shedders may start over an untrained model (core.NewUntrainedModel)
	// and come online once the first model is built.
	Lifecycle *LifecycleConfig
}

// Stats is a snapshot of pipeline counters.
type Stats struct {
	Submitted uint64
	// Processed counts routed events less those still queued at the
	// shards. An event queued at several shards is subtracted once per
	// shard, so with Shards > 1 the count may lag processing; it never
	// runs ahead of it, and it reaches Submitted once the pipeline has
	// drained.
	Processed uint64
	// QueueLen is the queued backlog in events: the shards' staged
	// memberships (see ShardStats.QueueLen) divided by the windowing
	// overlap factor, memberships per routed event.
	QueueLen int
	// InputRate and Throughput are the detector's current estimates in
	// events per second; Throughput is the summed per-shard estimate.
	InputRate  float64
	Throughput float64
	// Operator is the roll-up of the operator counters over all shards.
	Operator operator.Stats
	// Shards holds one entry per shard, one shard included.
	Shards []ShardStats
	// Lifecycle is the online model lifecycle snapshot, nil when the
	// lifecycle is disabled.
	Lifecycle *LifecycleStats
}

// ShardStats is a snapshot of one shard's counters.
type ShardStats struct {
	// Memberships counts (event, window) incidences routed to the shard;
	// Kept and Shed split them by the shedding decision.
	Memberships uint64
	Kept        uint64
	Shed        uint64
	// WindowsClosed, ComplexEvents and WindowsWithMatch mirror the
	// operator counters for windows owned by this shard.
	WindowsClosed    uint64
	ComplexEvents    uint64
	WindowsWithMatch uint64
	// QueueLen is the shard's current queue backlog in memberships
	// (each (event, window) incidence counts one), counted when the
	// partitioner flushes a batch to the shard.
	QueueLen int
	// PoolMisses counts window opens that had to allocate because the
	// shard's window pool was empty. In steady state it plateaus at the
	// warm working set; a climbing value means closed windows are not
	// being recycled (a pool leak).
	PoolMisses uint64
	// PoolGets and PoolPuts count window-pool handouts and recycles for
	// this shard. A stolen window is recycled into its *current* owner's
	// pool, so per-shard gets and puts diverge under stealing churn; the
	// conservation invariant is global — summed over all shards,
	// PoolPuts + PoolMisses >= PoolGets always, and PoolGets == PoolPuts
	// once every window has closed.
	PoolGets uint64
	PoolPuts uint64
	// Steals counts windows this shard adopted from a more-backlogged
	// shard (work stealing); a stolen window's remaining memberships,
	// close, matching and pool recycling all happen here.
	Steals uint64
	// Occupancy is the partitioner's live placement estimate of this
	// shard's in-flight window work: the summed expected sizes of the
	// open windows it currently owns. New windows are placed on the
	// shard minimizing Occupancy + QueueLen.
	Occupancy int64
	// Throughput is the detector's unshed-capacity estimate for this
	// shard in events per second.
	Throughput float64
}

// MultiController fans every detector decision out to several
// controllers, letting the single aggregate overload detector command
// per-shard shedders in lockstep.
type MultiController []sim.Controller

// OnDecision implements sim.Controller.
func (m MultiController) OnDecision(dec core.Decision) {
	for _, c := range m {
		if c != nil {
			c.OnDecision(dec)
		}
	}
}

// Pipeline is a running eSPICE-enabled CEP operator.
type Pipeline struct {
	cfg Config
	out chan operator.ComplexEvent

	// Submitters partition events through part straight into the shard
	// queues.
	part   *partitioner
	shards []*shard

	// lifecycle supervises online model training (Config.Lifecycle).
	lifecycle *Lifecycle

	// Latency sampling state, touched only under the partitioner mutex:
	// events since the last sample, the current stride (doubled on every
	// decimation), and the samples recorded since the last decimation
	// check.
	latSkip    int
	latEvery   int
	latSamples int

	submitted atomic.Uint64
	// Events and memberships routed and flushed by the partitioner; their
	// ratio is the windowing overlap factor kbar.
	routed        atomic.Uint64
	routedMembers atomic.Uint64

	rateEst atomic.Uint64 // float64 bits
	thEst   atomic.Uint64 // float64 bits

	// Panic containment (guard.go): failed trips on the first captured
	// processing panic, panicErr holds it.
	failed   atomic.Bool
	panicErr atomic.Pointer[PanicError]

	// abort unblocks shard-side steal rendezvous (an adopt op waiting on
	// its ring) when the pipeline dies before the matching evict is
	// processed — context cancel or contained panic.
	abort     chan struct{}
	abortOnce sync.Once

	mu sync.Mutex
	// latency holds the samples of events that joined no window (the
	// shards time the rest).
	latency   metrics.LatencyTrace
	inClosed  bool
	runCalled bool
}

// New validates the configuration and builds a pipeline.
func New(cfg Config) (*Pipeline, error) {
	if (cfg.Detector == nil) != (cfg.Controller == nil) {
		return nil, fmt.Errorf("runtime: Detector and Controller must be set together")
	}
	if cfg.QueueCap < 0 {
		return nil, fmt.Errorf("runtime: QueueCap must be >= 0, got %d", cfg.QueueCap)
	}
	if cfg.LatencySampleEvery < 0 {
		return nil, fmt.Errorf("runtime: LatencySampleEvery must be >= 0, got %d", cfg.LatencySampleEvery)
	}
	if cfg.LatencySampleEvery == 0 {
		cfg.LatencySampleEvery = 1
	}
	if cfg.OutBuffer < 0 {
		return nil, fmt.Errorf("runtime: OutBuffer must be >= 0, got %d", cfg.OutBuffer)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("runtime: Shards must be >= 0, got %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if n := len(cfg.ShardDeciders); n > 0 && n != cfg.Shards {
		return nil, fmt.Errorf("runtime: ShardDeciders has %d entries for %d shards", n, cfg.Shards)
	}
	if cfg.StealThreshold == 0 {
		cfg.StealThreshold = defaultStealThreshold
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 1 << 16
	}
	if cfg.OutBuffer == 0 {
		cfg.OutBuffer = 1024
	}
	var lc *Lifecycle
	if cfg.Lifecycle != nil {
		var shedders []*core.Shedder
		addShedder := func(d operator.Decider) {
			s, ok := d.(*core.Shedder)
			if !ok {
				return
			}
			for _, have := range shedders {
				if have == s {
					return
				}
			}
			shedders = append(shedders, s)
		}
		addShedder(cfg.Operator.Shedder)
		for _, d := range cfg.ShardDeciders {
			addShedder(d)
		}
		var err error
		lc, err = newLifecycle(*cfg.Lifecycle, shedders, cfg.Operator.Window)
		if err != nil {
			return nil, err
		}
	}
	// The shards run the operator's parts directly; building one
	// validates the window spec and the patterns.
	if _, err := operator.New(cfg.Operator); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:       cfg,
		lifecycle: lc,
		latEvery:  cfg.LatencySampleEvery,
		out:       make(chan operator.ComplexEvent, cfg.OutBuffer),
		abort:     make(chan struct{}),
	}
	maxMatches := cfg.Operator.MaxMatchesPerWindow
	if maxMatches <= 0 {
		maxMatches = 1
	}
	// Each shard queues at most its event share of QueueCap (reserve);
	// every batch but a close-only one carries an event, so a queue of
	// that many batches never binds first. The recycle ring holds the
	// batches of a queue of full batches: a submitter running that far
	// ahead of a shard finds every drained batch waiting for reuse, so
	// steady state allocates no new batches.
	share := (cfg.QueueCap + cfg.Shards - 1) / cfg.Shards
	recycleCap := share/opsFlushBatch + 8
	for i := 0; i < cfg.Shards; i++ {
		dec := cfg.Operator.Shedder
		if len(cfg.ShardDeciders) > 0 {
			dec = cfg.ShardDeciders[i]
		}
		sh := &shard{
			id:      i,
			pipe:    p,
			in:      make(chan *shardBatch, share),
			recycle: make(chan *shardBatch, recycleCap),
			adopt:   make(chan *window.Window, stealRingCap),
			share:   int64(share),
			room:    make(chan struct{}, 1),
			decider: dec,
			matcher: operator.NewMatcher(cfg.Operator.Patterns, maxMatches),
			hook:    cfg.Operator.OnWindowClose,
			delay:   cfg.ProcessingDelay,
		}
		if lc != nil {
			// One tap per shard: statistics accumulate on the shard
			// goroutines without contention and merge at (re)train time.
			tap, err := lc.newTap()
			if err != nil {
				return nil, err
			}
			sh.tap = tap
		}
		sh.batched, _ = dec.(operator.BatchingDecider)
		p.shards = append(p.shards, sh)
	}
	var err error
	p.part, err = newPartitioner(p, cfg.Operator.Window)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	return p, nil
}

// Submit routes one event into the shard queues; it blocks while the
// owning shard's queue is full. After CloseInput, or once the pipeline
// failed, the event is dropped.
func (p *Pipeline) Submit(e event.Event) { p.part.submitOne(e) }

// SubmitBatch routes a batch of events in stream order, amortizing the
// clock read and the shard queue sends over the batch; it blocks while
// an owning shard's queue is full. Events are copied into the op
// batches, so the caller may reuse the slice immediately. The submitted
// counter advances per routed event so the detector's input-rate
// estimate tracks actual arrivals even when a large batch blocks on a
// full queue. After CloseInput, or once the pipeline failed, the batch
// is dropped.
func (p *Pipeline) SubmitBatch(events []event.Event) { p.part.submitBatch(events) }

// CloseInput signals end of stream; Run drains the queue and returns.
func (p *Pipeline) CloseInput() {
	p.mu.Lock()
	if p.inClosed {
		p.mu.Unlock()
		return
	}
	p.inClosed = true
	p.mu.Unlock()
	// The partitioner takes p.mu while routing (latency samples), so
	// seal it outside the pipeline mutex to keep lock order one-way.
	p.part.close()
}

// Out delivers detected complex events. The channel closes when Run
// finishes.
func (p *Pipeline) Out() <-chan operator.ComplexEvent { return p.out }

// Stats returns a snapshot of the pipeline counters.
func (p *Pipeline) Stats() Stats {
	// Load the routed count first: every event it covers was already
	// counted into some shard's queuedEvents, so routed minus the queued
	// events never runs ahead of processing.
	routed := p.routed.Load()
	st := Stats{
		Submitted:  p.submitted.Load(),
		InputRate:  loadFloat(&p.rateEst),
		Throughput: loadFloat(&p.thEst),
		Shards:     make([]ShardStats, len(p.shards)),
	}
	if p.lifecycle != nil {
		ls := p.lifecycle.Stats()
		st.Lifecycle = &ls
	}
	var queued, queuedEvents int64
	for i, s := range p.shards {
		queuedEvents += s.queuedEvents.Load()
		ss := s.snapshot()
		st.Shards[i] = ss
		queued += int64(ss.QueueLen)
		st.Operator.Memberships += ss.Memberships
		st.Operator.MembershipsKept += ss.Kept
		st.Operator.MembershipsShed += ss.Shed
		st.Operator.WindowsClosed += ss.WindowsClosed
		st.Operator.ComplexEvents += ss.ComplexEvents
		st.Operator.WindowsWithMatch += ss.WindowsWithMatch
	}
	if queuedEvents < int64(routed) {
		st.Processed = routed - uint64(queuedEvents)
	}
	st.Operator.EventsProcessed = st.Processed
	st.QueueLen = backlogEvents(queued, overlap(p.routedMembers.Load(), routed))
	return st
}

// overlap is the windowing overlap factor kbar, memberships per event
// (0 before the first event).
func overlap(memberships, events uint64) float64 {
	if events == 0 {
		return 0
	}
	return float64(memberships) / float64(events)
}

// backlogEvents converts a membership-denominated shard backlog into
// events, the unit the detector and the engine budget reason in: the
// staged queues count every (event, window) incidence, which overstates
// the backlog by the overlap factor kbar.
func backlogEvents(queued int64, kbar float64) int {
	if kbar > 1 {
		return int(float64(queued)/kbar + 0.5)
	}
	return int(queued)
}

// Latency returns a copy of the recorded latency trace, merged across
// all shards. Safe to call mid-run (every trace is
// lock-protected); the ingest server snapshots it for live statistics,
// while experiment reports read it after Run returned.
func (p *Pipeline) Latency() *metrics.LatencyTrace {
	merged := &metrics.LatencyTrace{}
	p.mu.Lock()
	merged.Merge(&p.latency)
	p.mu.Unlock()
	for _, s := range p.shards {
		s.mu.Lock()
		merged.Merge(&s.latency)
		s.mu.Unlock()
	}
	return merged
}

// Retrain asks the online model lifecycle for an explicit rebuild from
// the statistics accumulated since the last swap; it errors when the
// pipeline was built without Config.Lifecycle. The rebuild happens on
// the supervisor goroutine as soon as the warm-up threshold is met.
func (p *Pipeline) Retrain() error {
	if p.lifecycle == nil {
		return fmt.Errorf("runtime: Retrain needs Config.Lifecycle")
	}
	p.lifecycle.Retrain()
	return nil
}

// Lifecycle returns the online model lifecycle supervisor (nil when
// disabled): stats, the currently published model, explicit retrains.
func (p *Pipeline) Lifecycle() *Lifecycle { return p.lifecycle }

// startLifecycle launches the lifecycle supervisor goroutine and returns
// its stop function (a no-op when the lifecycle is disabled).
func (p *Pipeline) startLifecycle() func() {
	if p.lifecycle == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go p.lifecycle.run(stop, done)
	return func() {
		close(stop)
		<-done
	}
}

// Run processes events until the input is closed and drained, or the
// context is canceled. It is a blocking call. The data path itself lives
// in the submitters (partitioning) and the shards (window ownership);
// Run starts the shards, the merge stage, the detector and the
// lifecycle, then waits for the input to be sealed or the context to
// end.
func (p *Pipeline) Run(ctx context.Context) error {
	p.mu.Lock()
	if p.runCalled {
		p.mu.Unlock()
		return fmt.Errorf("runtime: Run called twice")
	}
	p.runCalled = true
	p.mu.Unlock()
	defer close(p.out)

	merger := parallel.NewEpochMerger(4*len(p.shards), func(ces []operator.ComplexEvent) {
		for _, ce := range ces {
			select {
			case p.out <- ce:
			case <-ctx.Done():
				return
			}
		}
	})
	var wg sync.WaitGroup
	for _, s := range p.shards {
		s.merger = merger
		wg.Add(1)
		go s.run(ctx, &wg)
	}
	stopLifecycle := p.startLifecycle()

	var detectorStop, detectorDone chan struct{}
	if p.cfg.Detector != nil || p.cfg.EstimateRates {
		detectorStop = make(chan struct{})
		detectorDone = make(chan struct{})
		go p.detectorLoop(detectorStop, detectorDone)
	}

	var err error
	select {
	case <-ctx.Done():
		err = ctx.Err()
		p.part.cancel()
	case <-p.part.done:
	}
	// The shard channels are closed (cancel or close sealed them), so
	// the shards drain and exit; then no producer holds the merger.
	wg.Wait()
	merger.Close()
	if detectorStop != nil {
		close(detectorStop)
		<-detectorDone
	}
	stopLifecycle()
	if err == nil {
		// A contained panic (in a shard or in the partitioner inline in
		// a submitter) outranks a clean drain.
		if pe := p.panicErr.Load(); pe != nil {
			return pe
		}
	}
	return err
}

// detectorLoop estimates the input rate from the aggregate submitted
// counter and the unshed capacity as the sum of per-shard service-rate
// estimates, and forwards one decision per tick to the controller —
// commanding all shedders in lockstep when the controller is a
// MultiController.
func (p *Pipeline) detectorLoop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(p.cfg.PollInterval)
	defer ticker.Stop()

	lastKept := make([]uint64, len(p.shards))
	lastBusy := make([]int64, len(p.shards))
	var lastSubmitted uint64
	lastTime := time.Now()
	const alpha = 0.3 // EWMA smoothing for rate and throughput estimates
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			wall := now.Sub(lastTime).Seconds()
			if wall <= 0 {
				continue
			}
			lastTime = now

			submitted := p.submitted.Load()
			storeEWMA(&p.rateEst, float64(submitted-lastSubmitted)/wall, alpha)
			lastSubmitted = submitted

			// Throughput must describe the *unshed* capacity in events/s:
			// events per busy-second would inflate while shedding (shed
			// memberships cost almost nothing), so measure the service
			// rate per kept membership and divide by the global
			// memberships-per-event overlap factor kbar of the routed
			// stream.
			var queued int64
			for _, s := range p.shards {
				queued += s.queued.Load()
			}
			kbar := overlap(p.routedMembers.Load(), p.routed.Load())

			total := 0.0
			for i, s := range p.shards {
				kept := s.kept.Load()
				busy := s.busyNanos.Load()
				if busyDelta := busy - lastBusy[i]; busyDelta > 0 && kept > lastKept[i] && kbar > 0 {
					perKept := float64(kept-lastKept[i]) / (float64(busyDelta) / 1e9)
					storeEWMA(&s.thEst, perKept/kbar, alpha)
				}
				lastKept[i], lastBusy[i] = kept, busy
				total += loadFloat(&s.thEst)
			}
			p.thEst.Store(floatToBits(total))
			if total <= 0 || p.cfg.Detector == nil {
				continue
			}
			dec := p.cfg.Detector.Evaluate(backlogEvents(queued, kbar), loadFloat(&p.rateEst), total,
				p.windowSizeEstimate())
			p.cfg.Controller.OnDecision(dec)
		}
	}
}

// maxLatencySamples bounds the total recorded latency samples per
// pipeline (~4 MiB across all traces); reaching it halves every trace
// and doubles the sampling stride.
const maxLatencySamples = 1 << 18

// sampleLatency reports whether the current event contributes a latency
// sample (1 in latEvery, initially Config.LatencySampleEvery). Called
// under the partitioner mutex, never concurrently. When the recorded
// samples reach maxLatencySamples the traces are decimated and the
// stride doubles, keeping the memory and Summary cost of an unbounded
// run fixed.
func (p *Pipeline) sampleLatency() bool {
	p.latSkip++
	if p.latSkip < p.latEvery {
		return false
	}
	p.latSkip = 0
	p.latSamples++
	if p.latSamples >= maxLatencySamples {
		p.latSamples /= 2
		p.latEvery *= 2
		p.mu.Lock()
		p.latency.Decimate()
		p.mu.Unlock()
		for _, s := range p.shards {
			s.mu.Lock()
			s.latency.Decimate()
			s.mu.Unlock()
		}
	}
	return true
}

// windowSizeEstimate is the window size the detector's shedding hint
// uses. The partitioner's tracker predicts sizes under its own mutex;
// to stay data-race free the detector reads the spec-derived size
// instead, and a stale value merely shifts partition boundaries by a
// few events.
func (p *Pipeline) windowSizeEstimate() int {
	spec := p.cfg.Operator.Window
	switch {
	case spec.Count > 0:
		return spec.Count
	case spec.SizeHint > 0:
		return spec.SizeHint
	default:
		return 1
	}
}

func loadFloat(a *atomic.Uint64) float64 {
	bits := a.Load()
	if bits == 0 {
		return 0
	}
	return floatFromBits(bits)
}

func storeEWMA(a *atomic.Uint64, sample, alpha float64) {
	prev := loadFloat(a)
	next := sample
	if prev > 0 {
		next = (1-alpha)*prev + alpha*sample
	}
	a.Store(floatToBits(next))
}
