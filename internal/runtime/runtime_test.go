package runtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/window"
)

const (
	typeA = event.Type(0)
	typeB = event.Type(1)
)

func opConfig(shed operator.Decider) operator.Config {
	p := pattern.MustCompile(pattern.Pattern{
		Name: "seq(A;B)",
		Steps: []pattern.Step{
			{Types: []event.Type{typeA}},
			{Types: []event.Type{typeB}},
		},
	})
	return operator.Config{
		Window:   window.Spec{Mode: window.ModeCount, Count: 10, Slide: 10},
		Patterns: []*pattern.Compiled{p},
		Shedder:  shed,
	}
}

func TestNewValidation(t *testing.T) {
	det, _ := core.NewOverloadDetector(core.DetectorConfig{LatencyBound: event.Second, F: 0.8})
	if _, err := New(Config{Operator: opConfig(nil), Detector: det}); err == nil {
		t.Error("detector without controller must fail")
	}
	if _, err := New(Config{Operator: operator.Config{}}); err == nil {
		t.Error("invalid operator config must fail")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	harness.VerifyNoLeaks(t)
	p, err := New(Config{Operator: opConfig(nil)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()

	var detected []operator.ComplexEvent
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for ce := range p.Out() {
			detected = append(detected, ce)
		}
	}()

	const n = 200
	for i := 0; i < n; i++ {
		p.Submit(event.Event{Seq: uint64(i), Type: event.Type(i % 2)})
	}
	p.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-collected
	if len(detected) != n/10 {
		t.Errorf("detected %d complex events, want %d", len(detected), n/10)
	}
	st := p.Stats()
	if st.Submitted != n || st.Processed != n {
		t.Errorf("stats: %+v", st)
	}
	if p.Latency().Len() != n {
		t.Errorf("latency samples = %d", p.Latency().Len())
	}
}

func TestPipelineContextCancel(t *testing.T) {
	harness.VerifyNoLeaks(t)
	p, err := New(Config{Operator: opConfig(nil)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()
	p.Submit(event.Event{Seq: 0, Type: typeA})
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

func TestRunTwiceFails(t *testing.T) {
	p, err := New(Config{Operator: opConfig(nil)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	go func() {
		for range p.Out() {
		}
	}()
	// Give the first Run a beat to register.
	time.Sleep(20 * time.Millisecond)
	if err := p.Run(context.Background()); err == nil {
		t.Error("second Run must fail")
	}
	p.CloseInput()
	<-done
}

// TestPipelineShedsUnderOverload submits one event per Submit call much
// faster than the pipeline serves them. An artificial per-membership
// delay of 200µs caps throughput at a few thousand ev/s, so the trigger
// F·LB·throughput sits near a hundred events at LB = 50ms and at hundreds
// to thousands at LB = 1s: QueueCap counts events however the producer
// batches them, so the backlog must reach either trigger and shed.
func TestPipelineShedsUnderOverload(t *testing.T) {
	for _, lb := range []event.Time{50 * event.Millisecond, event.Second} {
		t.Run(fmt.Sprintf("lb=%v", time.Duration(lb)*time.Microsecond), func(t *testing.T) {
			harness.VerifyNoLeaks(t)
			model := trainedTestModel(t)
			shedder, err := core.NewShedder(model)
			if err != nil {
				t.Fatal(err)
			}
			det, err := core.NewOverloadDetector(core.DetectorConfig{LatencyBound: lb, F: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(Config{
				Operator:        opConfig(shedder),
				Detector:        det,
				Controller:      shedController{shedder},
				PollInterval:    2 * time.Millisecond,
				ProcessingDelay: 200 * time.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- p.Run(context.Background()) }()
			go func() {
				for range p.Out() {
				}
			}()
			for i := 0; i < 3000; i++ {
				p.Submit(event.Event{Seq: uint64(i), Type: event.Type(i % 2)})
			}
			p.CloseInput()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			st := p.Stats()
			if st.Operator.MembershipsShed == 0 {
				t.Errorf("overloaded pipeline must shed (throughput %.0f ev/s)", st.Throughput)
			}
			if st.Throughput <= 0 || st.InputRate <= 0 {
				t.Errorf("estimates not populated: %+v", st)
			}
		})
	}
}

// shedController wires detector decisions to a core shedder (the same
// logic as harness.ESPICEController without the import cycle).
type shedController struct{ s *core.Shedder }

func (c shedController) OnDecision(dec core.Decision) {
	if dec.Overloaded && dec.X > 0 {
		_ = c.s.Configure(dec.Part, dec.X)
		return
	}
	c.s.Deactivate()
}

// trainedTestModel builds a tiny uniform model where every event is
// sheddable.
func trainedTestModel(t *testing.T) *core.Model {
	t.Helper()
	ut, err := core.NewUtilityTable(2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	shares := [][]float64{make([]float64, 10), make([]float64, 10)}
	for p := 0; p < 10; p++ {
		shares[0][p], shares[1][p] = 0.5, 0.5
	}
	m, err := core.NewModelFromTable(ut, shares)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEstimateRatesWithoutDetector checks that EstimateRates keeps the
// rate/throughput estimators alive with no detector attached, for one
// shard and for two — the multi-query engine's global budget reads these
// estimates from outside the pipeline.
func TestEstimateRatesWithoutDetector(t *testing.T) {
	harness.VerifyNoLeaks(t)
	for _, shards := range []int{1, 2} {
		p, err := New(Config{
			Operator:        opConfig(nil),
			EstimateRates:   true,
			Shards:          shards,
			PollInterval:    2 * time.Millisecond,
			ProcessingDelay: 20 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- p.Run(context.Background()) }()
		go func() {
			for range p.Out() {
			}
		}()
		for i := 0; i < 4000; i++ {
			p.Submit(event.Event{Seq: uint64(i), TS: event.Time(i), Type: event.Type(i % 2)})
			if i%100 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		st := p.Stats()
		p.CloseInput()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if st.InputRate <= 0 {
			t.Errorf("shards=%d: InputRate not estimated: %+v", shards, st)
		}
		if st.Throughput <= 0 {
			t.Errorf("shards=%d: Throughput not estimated: %+v", shards, st)
		}
	}
}

// TestBackpressureEventBound pins the event-based QueueCap bound: mixed
// Submit/SubmitBatch producers against a slow shard never queue more
// than QueueCap events, or one batch when that batch alone exceeds it;
// every producer eventually unblocks (no missed wakeups), and nothing
// is lost.
func TestBackpressureEventBound(t *testing.T) {
	harness.VerifyNoLeaks(t)
	const (
		queueCap  = 64
		producers = 4
		perProd   = 600
	)
	cfg := Config{Operator: opConfig(nil), QueueCap: queueCap}
	// Every tenth event closes a window; a slow close hook makes the
	// shard the bottleneck so the backlog builds up to the bound.
	cfg.Operator.OnWindowClose = func(*window.Window, []window.Entry) {
		time.Sleep(20 * time.Microsecond)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	go func() {
		for range p.Out() {
		}
	}()

	var maxSeen atomic.Int64
	stopWatch := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			select {
			case <-stopWatch:
				return
			default:
				if q := p.shards[0].queuedEvents.Load(); q > maxSeen.Load() {
					maxSeen.Store(q)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				for j := 0; j < perProd; j++ {
					p.Submit(event.Event{Seq: uint64(i*perProd + j), TS: event.Time(j)})
				}
				return
			}
			batch := make([]event.Event, perProd)
			for j := range batch {
				batch[j] = event.Event{Seq: uint64(i*perProd + j), TS: event.Time(j)}
			}
			p.SubmitBatch(batch)
		}(i)
	}
	wg.Wait()
	close(stopWatch)
	<-watched
	p.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Processed != producers*perProd {
		t.Fatalf("processed %d events, want %d", st.Processed, producers*perProd)
	}
	// An empty queue admits a whole SubmitBatch flush of up to
	// opsFlushBatch ops; otherwise the queue stays within QueueCap.
	limit := int64(max(queueCap, opsFlushBatch))
	got := maxSeen.Load()
	if got > limit {
		t.Errorf("backlog peaked at %d events, want <= %d", got, limit)
	}
	if got < queueCap {
		t.Errorf("backlog peaked at %d events; the slow shard never fell behind", got)
	}
}
