package runtime

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/operator"
	"repro/internal/parallel"
	"repro/internal/window"
)

// shard is one operator instance. It owns every window the partitioner
// assigned to it — open, membership add, shed decision, close, matching
// and pool recycling all happen on the shard goroutine, against
// shard-local state — and it replays the partitioner's compiled op
// stream in FIFO order, which is what makes slot recycling and the
// per-window open→event→close ordering safe without locks.
type shard struct {
	id      int
	pipe    *Pipeline        // back-pointer for panic containment (guard.go)
	in      chan *shardBatch // op batches from the partitioner
	recycle chan *shardBatch // drained batches handed back for reuse
	// adopt is the shard's steal ring: when the partitioner reassigns a
	// window to this shard, the previous owner pushes the window struct
	// here and this shard's adopt op receives it. At most one steal per
	// thief is in flight (pendingAdopts), so the push never blocks.
	adopt   chan *window.Window
	decider operator.Decider
	batched operator.BatchingDecider // non-nil when decider batches counters
	matcher *operator.Matcher        // per-shard match scratch
	// merger re-serializes the shards' closed-window results into global
	// window-close order. Set by Run before the shard goroutine starts.
	merger *parallel.EpochMerger[[]operator.ComplexEvent]
	// hook is the user OnWindowClose hook. It runs on the shard
	// goroutine, so with Shards > 1 it must be safe for concurrent calls
	// (one per shard); the matched entries alias the shard's match
	// scratch, as operator.Operator's do.
	hook operator.WindowCloseHook
	// tap feeds the shard's window closes to the online model lifecycle
	// (nil when disabled); per-shard statistics accumulate without
	// contention and merge at (re)train time.
	tap   *operator.FeedbackTap
	delay time.Duration

	// wins maps partitioner-assigned slots to the shard's live windows;
	// open lists the same windows in open/adopt order, and every event op
	// joins each of them; pool recycles them shard-locally.
	wins []*window.Window
	open []*window.Window
	pool window.Pool

	// latBuf collects the batch's latency samples; they fold into the
	// lock-protected trace once per batch instead of once per sample.
	latBuf []latSample

	memberships      atomic.Uint64
	kept             atomic.Uint64
	shed             atomic.Uint64
	queued           atomic.Int64 // memberships staged but not yet processed
	windowsClosed    atomic.Uint64
	complexEvents    atomic.Uint64
	windowsWithMatch atomic.Uint64
	busyNanos        atomic.Int64
	thEst            atomic.Uint64 // float64 bits

	// queuedEvents counts the events of the flushed but unprocessed
	// batches; reserve holds the submitter while it is at share (the
	// shard's part of QueueCap), and room wakes a waiting submitter.
	queuedEvents atomic.Int64
	share        int64
	waiting      atomic.Bool
	room         chan struct{}

	// Skew-aware scale-out state: occupancy is the partitioner's
	// placement estimate (summed expected sizes of owned open windows,
	// updated under the partitioner mutex), steals counts adopted
	// windows, and pendingAdopts caps in-flight steals to this shard at
	// one (incremented at staging, decremented when the adopt op
	// actually receives from the ring).
	occupancy     atomic.Int64
	steals        atomic.Uint64
	pendingAdopts atomic.Int32

	mu      sync.Mutex
	latency metrics.LatencyTrace
}

type latSample struct{ ts, lat event.Time }

// snapshot reads the shard counters. QueueLen reports the staged
// memberships (not batches); Stats divides their sum by the windowing
// overlap factor to report the backlog in events.
func (s *shard) snapshot() ShardStats {
	return ShardStats{
		Memberships:      s.memberships.Load(),
		Kept:             s.kept.Load(),
		Shed:             s.shed.Load(),
		WindowsClosed:    s.windowsClosed.Load(),
		ComplexEvents:    s.complexEvents.Load(),
		WindowsWithMatch: s.windowsWithMatch.Load(),
		QueueLen:         int(s.queued.Load()),
		PoolMisses:       s.pool.Misses(),
		PoolGets:         s.pool.Gets(),
		PoolPuts:         s.pool.Puts(),
		Steals:           s.steals.Load(),
		Occupancy:        s.occupancy.Load(),
		Throughput:       loadFloat(&s.thEst),
	}
}

// reserve counts n more queued events, first holding the submitter back
// while they would take the queue past the shard's share of QueueCap.
// An empty queue admits any batch, so one larger than the share still
// passes. Only the partitioner calls it, under its mutex, so there is at
// most one waiter; release wakes it through room. The shard keeps
// draining its queue after a cancel or a contained panic, so the wait
// always ends.
func (s *shard) reserve(n int64) {
	if !s.fits(n) {
		// Announce the wait before re-checking: a release that the check
		// misses then sees waiting and leaves a token in room.
		s.waiting.Store(true)
		for !s.fits(n) {
			<-s.room
		}
		s.waiting.Store(false)
	}
	s.queuedEvents.Add(n)
}

func (s *shard) fits(n int64) bool {
	q := s.queuedEvents.Load()
	return q == 0 || q+n <= s.share
}

// release retires batch b's backlog — its memberships and its events —
// and wakes a submitter waiting for room. It zeroes the batch's counts,
// so the panic guard's call after a normal release is a no-op.
func (s *shard) release(b *shardBatch) {
	s.queued.Add(-int64(b.members))
	s.queuedEvents.Add(-int64(len(b.events)))
	b.members, b.events = 0, b.events[:0]
	if s.waiting.Load() {
		select {
		case s.room <- struct{}{}:
		default:
		}
	}
}

// tallyFlushBatch caps how many shedding decisions a shard accumulates
// locally before folding them into the shedder's shared atomic counters.
const tallyFlushBatch = 1024

// setSlot installs w (nil after an aborted adopt) in slot, growing the
// slot array to cover it, and lists a live window as open.
func (s *shard) setSlot(slot int32, w *window.Window) {
	for len(s.wins) <= int(slot) {
		s.wins = append(s.wins, nil)
	}
	s.wins[slot] = w
	if w != nil {
		s.open = append(s.open, w)
	}
}

// clearSlot empties slot and drops its window from the open list,
// keeping the list's order; it returns the window (nil after an aborted
// adopt).
func (s *shard) clearSlot(slot int32) *window.Window {
	w := s.wins[slot]
	s.wins[slot] = nil
	for i, o := range s.open {
		if o == w {
			s.open = append(s.open[:i], s.open[i+1:]...)
			break
		}
	}
	return w
}

// run drains the shard's batch queue until the partitioner closes it.
// After a context cancel — or a panic tripping the pipeline, on this
// shard or any other — it keeps draining but skips all work, so a
// blocked partitioner send always completes and teardown never
// deadlocks. Shedding counters are tallied locally and flushed when the
// queue momentarily drains or every tallyFlushBatch decisions.
func (s *shard) run(ctx context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	var decisions, drops uint64
	flush := func() {
		if decisions > 0 {
			s.batched.TallyDecisions(decisions, drops)
			decisions, drops = 0, 0
		}
	}
	defer flush()
	for b := range s.in {
		if ctx.Err() != nil || s.pipe.failed.Load() {
			s.drainBatch(b)
			continue
		}
		s.processBatch(b, &decisions, &drops)
		if decisions >= tallyFlushBatch || len(s.in) == 0 {
			flush()
		}
	}
}

// drainBatch disposes of a batch without processing after a cancel or a
// contained panic. Steal-handoff ops must still be serviced — an evict
// that is never pushed would wedge the thief blocked on its ring, and
// an adopt that is never received would strand the victim's push — so
// the drain walks the ops and completes every rendezvous (the abort
// channel, closed on cancel/panic, breaks pairs whose other half was
// dropped with an unflushed batch).
func (s *shard) drainBatch(b *shardBatch) {
	for _, op := range b.ops {
		switch op.kind & opKindMask {
		case opEvict:
			var w *window.Window
			if int(op.slot) < len(s.wins) {
				w = s.clearSlot(op.slot)
			}
			s.pipe.shards[op.a].adopt <- w
		case opAdopt:
			select {
			case <-s.adopt:
				s.pendingAdopts.Add(-1)
			case <-s.pipe.abort:
			}
		}
	}
	s.release(b)
}

// abortSteals unblocks every steal-ring rendezvous whose counterpart op
// will never be processed (dropped with a canceled batch or unwound by
// a panic). Idempotent.
func (p *Pipeline) abortSteals() {
	p.abortOnce.Do(func() { close(p.abort) })
}

// processBatch replays one op batch against the shard's windows, under
// the panic guard: a panic anywhere in it — shed decider, matcher,
// close hook — trips the pipeline and drops the rest of the batch, and
// run falls into drain mode on the next iteration.
func (s *shard) processBatch(b *shardBatch, decisions, drops *uint64) {
	defer s.recoverBatch(b)
	start := time.Now()
	var kept, shed, members uint64
	var out []parallel.EpochResult[[]operator.ComplexEvent]
	haveOut := false
	for _, op := range b.ops {
		switch op.kind & opKindMask {
		case opEvent:
			ev := b.events[op.evIdx]
			var k uint64
			for _, w := range s.open {
				pos := w.Arrivals
				w.Arrivals++
				if operator.ShedDecision(s.decider, s.batched, ev.Type, pos, w.ExpectedSize,
					decisions, drops) {
					w.Dropped++
					shed++
				} else {
					w.Add(ev, pos)
					k++
				}
			}
			members += uint64(len(s.open))
			kept += k
			// One sleep per event op for all its kept memberships: a
			// sleep per membership would pay the timer's overshoot once
			// per window and slow a delayed shard far past the delay.
			if s.delay > 0 && k > 0 {
				time.Sleep(time.Duration(k) * s.delay)
			}
			if op.kind&opSampleFlag != 0 {
				now := time.Now()
				s.latBuf = append(s.latBuf, latSample{
					ts:  event.Time(now.UnixMicro()),
					lat: event.Time(now.Sub(b.arrived).Microseconds()),
				})
			}
		case opOpen:
			w := s.pool.Get()
			ev := b.events[op.evIdx]
			w.ID = window.ID(op.a)
			w.OpenSeq = ev.Seq
			w.OpenTS = ev.TS
			w.ExpectedSize = int(op.b)
			s.setSlot(op.slot, w)
		case opClose:
			w := s.clearSlot(op.slot)
			if w == nil {
				continue // adopt aborted mid-teardown; merger emits the prefix
			}
			if !haveOut {
				out = s.merger.Batch()
				haveOut = true
			}
			out = append(out, parallel.EpochResult[[]operator.ComplexEvent]{
				Epoch: op.a,
				Val:   s.closeOwned(w, event.Time(op.b)),
			})
		case opEvict:
			// Ownership handoff, donor side: push the window — buffered
			// entries, counters and its pool entry — to the thief's steal
			// ring and forget it. Future ops for this window (events,
			// close) were staged to the thief after its adopt op.
			s.pipe.shards[op.a].adopt <- s.clearSlot(op.slot)
		case opAdopt:
			// Ownership handoff, thief side: receive the stolen window into
			// a fresh local slot. Blocks until the donor processes its evict
			// (always strictly earlier in staging order, so this cannot
			// deadlock); the abort channel breaks the wait if the pipeline
			// dies with the evict unflushed.
			var w *window.Window
			select {
			case w = <-s.adopt:
				s.pendingAdopts.Add(-1)
				if w != nil {
					s.steals.Add(1)
				}
			case <-s.pipe.abort:
			}
			s.setSlot(op.slot, w)
		}
	}
	s.memberships.Add(members)
	if kept > 0 {
		s.kept.Add(kept)
	}
	if shed > 0 {
		s.shed.Add(shed)
	}
	// Release zeroes the batch's counts, so the panic guard (which
	// releases too) stays exactly-once no matter where a panic lands.
	s.release(b)
	s.busyNanos.Add(time.Since(start).Nanoseconds())
	if len(s.latBuf) > 0 {
		s.mu.Lock()
		for _, ls := range s.latBuf {
			s.latency.Add(ls.ts, ls.lat)
		}
		s.mu.Unlock()
		s.latBuf = s.latBuf[:0]
	}
	// Publish the batch's closes in one rendezvous — empty epochs
	// included, the merge stage needs every epoch to stay contiguous.
	if len(out) > 0 {
		s.merger.Publish(out)
	}
	b.ops = b.ops[:0]
	select {
	case s.recycle <- b:
	default:
	}
}

// closeOwned mirrors operator.closeWindow for one shard-owned window:
// seal, match, tap, hook, recycle. The returned complex events are the
// window's merge payload; they reference no window memory, so the
// window goes straight back to the shard's pool — release is local and
// never lossy.
func (s *shard) closeOwned(w *window.Window, now event.Time) []operator.ComplexEvent {
	s.windowsClosed.Add(1)
	w.MarkClosed()
	ces, matched, found := s.matcher.MatchClosed(w, now, nil)
	if found {
		s.windowsWithMatch.Add(1)
	}
	if s.tap != nil {
		s.tap.OnWindowClose(w, matched)
	}
	if s.hook != nil {
		s.hook(w, matched)
	}
	s.complexEvents.Add(uint64(len(ces)))
	s.pool.Put(w)
	return ces
}
