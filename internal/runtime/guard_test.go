package runtime

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/window"
)

// TestPanicContainmentSerial panics inside the OnWindowClose hook of a
// single-shard pipeline: Run must return the captured *PanicError (not crash),
// the output channel must close, and producers submitting after the
// panic must not block.
func TestPanicContainmentSerial(t *testing.T) {
	harness.VerifyNoLeaks(t)
	var closes atomic.Int64
	cfg := Config{Operator: opConfig(nil)}
	cfg.Operator.OnWindowClose = func(w *window.Window, matched []window.Entry) {
		if closes.Add(1) == 2 {
			panic("hook boom")
		}
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for range p.Out() {
		}
	}()

	events := deterministicStream(200)
	p.SubmitBatch(events[:100])
	// By the 100th event several windows have closed, so the trip has
	// happened; the second half must drain without blocking.
	p.SubmitBatch(events[100:])
	p.CloseInput()

	err = <-done
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v, want *PanicError", err)
	}
	if pe.Value != "hook boom" || pe.Stack == "" || pe.When.IsZero() {
		t.Errorf("PanicError incomplete: %+v", pe)
	}
	if !p.Failed() || p.PanicError() != pe {
		t.Error("Failed/PanicError disagree with Run's return")
	}
	<-collected
}

// TestPanicContainmentSharded panics inside the OnWindowClose hook on a
// shard worker goroutine: the trip must propagate to Run's return value,
// every sibling shard must keep draining (no wedged producer, no
// deadlocked merge), and teardown must complete.
func TestPanicContainmentSharded(t *testing.T) {
	harness.VerifyNoLeaks(t)
	var closes atomic.Int64
	cfg := Config{Operator: overlappingOpConfig(), Shards: 4}
	cfg.Operator.OnWindowClose = func(w *window.Window, matched []window.Entry) {
		if closes.Add(1) == 3 {
			panic("shard boom")
		}
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for range p.Out() {
		}
	}()

	events := deterministicStream(4000)
	// Submit in chunks well past the panic point: once tripped, the
	// partitioner drops instead of routing, so this must never block on
	// a dead shard's bounded queue.
	for i := 0; i < len(events); i += 500 {
		p.SubmitBatch(events[i : i+500])
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		p.CloseInput()
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("CloseInput blocked after a shard panic")
	}

	err = <-done
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v, want *PanicError", err)
	}
	if pe.Value != "shard boom" {
		t.Errorf("panic value = %v", pe.Value)
	}
	<-collected
}

// TestPanicOnPanicFiresOnce asserts the OnPanic callback fires exactly
// once even when several shards panic near-simultaneously.
func TestPanicOnPanicFiresOnce(t *testing.T) {
	harness.VerifyNoLeaks(t)
	var fired atomic.Int64
	cfg := Config{Operator: overlappingOpConfig(), Shards: 4}
	cfg.Operator.OnWindowClose = func(w *window.Window, matched []window.Entry) {
		panic("every close")
	}
	cfg.OnPanic = func(pe *PanicError) { fired.Add(1) }
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
	p.SubmitBatch(deterministicStream(2000))
	p.CloseInput()
	if err := <-done; err == nil {
		t.Fatal("Run returned nil after hook panics")
	}
	if n := fired.Load(); n != 1 {
		t.Errorf("OnPanic fired %d times, want 1", n)
	}
}
