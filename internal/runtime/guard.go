// Panic containment. The pipeline's processing paths — the shard
// workers and the partitioner running inline in the submitter — both
// execute user code: shedder deciders, window-close hooks, pattern
// matchers, window predicates. A panic in any of them must not take the
// process down, and must not wedge the producers feeding the pipeline.
//
// The containment contract is drain-don't-die: the first panic trips
// the pipeline's failed flag and is captured as a *PanicError; every
// processing path then keeps draining its input while skipping all
// work (exactly like the context-canceled path), so a blocked producer
// always completes its send and teardown never deadlocks. Run returns
// the PanicError once the input is sealed. The multi-query engine
// layers quarantine on top: its Config.OnPanic callback fires once per
// pipeline, from the goroutine that panicked, right when the flag
// trips.
//
// The guards are deferred method calls with no closure captures, so
// they compile to open-coded defers and add no allocations to the
// steady-state hot paths (the zero-alloc gates cover this).
package runtime

import (
	"fmt"
	runtimedebug "runtime/debug"
	"time"
)

// PanicError is a panic captured inside a pipeline processing path. It
// implements error; Run returns it after the pipeline drained.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack string
	// When is the capture time.
	When time.Time
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runtime: pipeline panic: %v", e.Value)
}

// Failed reports whether a processing panic has tripped the pipeline.
// A failed pipeline drains submissions without processing them; callers
// (the engine's fan-out) use this to stop delivering cheaply.
func (p *Pipeline) Failed() bool { return p.failed.Load() }

// PanicError returns the captured panic, nil while the pipeline is
// healthy.
func (p *Pipeline) PanicError() *PanicError {
	return p.panicErr.Load()
}

// Trip records a panic value against the pipeline: the first call
// captures the stack, trips the failed flag and fires Config.OnPanic
// (from the calling goroutine); later calls return the first capture.
// The pipeline itself calls it from its recovery guards; embedding
// layers call it to attribute a panic the pipeline's submit path threw
// into their goroutine (the partitioner runs windowing inline in
// SubmitBatch).
func (p *Pipeline) Trip(v any) *PanicError {
	pe := &PanicError{Value: v, Stack: string(runtimedebug.Stack()), When: time.Now()}
	if !p.panicErr.CompareAndSwap(nil, pe) {
		return p.panicErr.Load()
	}
	p.failed.Store(true)
	// A dying pipeline may strand a steal handoff (the panic
	// unwound past an evict, or a drained batch dropped one); release
	// any shard blocked on its ring so teardown cannot deadlock.
	p.abortSteals()
	if p.cfg.OnPanic != nil {
		p.cfg.OnPanic(pe)
	}
	return pe
}

// recoverBatch is the shard worker guard: deferred by processBatch, it
// trips the pipeline and completes the batch's backlog accounting (a
// no-op when the panic struck after the normal release).
func (s *shard) recoverBatch(b *shardBatch) {
	if r := recover(); r != nil {
		s.pipe.Trip(r)
		s.release(b)
	}
}
