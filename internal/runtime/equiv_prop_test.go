package runtime

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/window"
)

// dropFunc is a deterministic, stateless shedding decider: safe to share
// across shards, and its decisions depend only on the membership
// coordinates — exactly the property the pipeline ≡ operator contract
// needs from a shedder.
type dropFunc func(t event.Type, pos, ws int) bool

func (f dropFunc) Drop(t event.Type, pos, ws int) bool { return f(t, pos, ws) }

// propWorkload is one randomized overlapping-window workload.
type propWorkload struct {
	label  string
	spec   window.Spec
	events []event.Event
	shed   bool
}

// predFlavor selects the window predicates of a workload: none (windows
// open by slide), windows opened by every typeMark event (like the
// tenant queries' `open STR_A`), or windows sealed by a predicate
// (Spec.Close). A predicate-closed window ends before the event that
// closes it, a count window after the event that fills it: the two
// orders the partitioner stages closes in.
type predFlavor int

const (
	predNone predFlavor = iota
	predOpen
	predClose
)

var predFlavors = []predFlavor{predNone, predOpen, predClose}

// makeWorkload derives a workload from a seed: count- or time-based
// windows with random (overlapping) geometry and the given predicates, a
// random-length stream of randomly typed events with either irregular or
// bursty (skewed) timestamp gaps, and optionally a deterministic
// shedder. Bursty streams pack most events into dense clusters separated
// by long quiet gaps, so time-based windows opened inside a burst are
// far larger than the rest — the hot-window skew the work-stealing path
// rebalances. The predicates draw nothing from the seed, so a seed gives
// the same geometry and stream in every flavor.
func makeWorkload(seed uint64, nEvents int, pred predFlavor) propWorkload {
	rng := rand.New(rand.NewSource(int64(seed)))
	w := propWorkload{shed: rng.Intn(2) == 0}
	burst := rng.Intn(2) == 0
	if nEvents <= 0 {
		nEvents = 200 + rng.Intn(1200)
	}
	if rng.Intn(2) == 0 {
		count := 3 + rng.Intn(22)
		slide := 1 + rng.Intn(count)
		w.spec = window.Spec{Mode: window.ModeCount, Count: count, Slide: slide}
		w.label = fmt.Sprintf("seed=%d/count=%d/slide=%d/n=%d/shed=%v/burst=%v",
			seed, count, slide, nEvents, w.shed, burst)
	} else {
		length := event.Time(5+rng.Intn(45)) * event.Millisecond
		slide := event.Time(1+rng.Intn(20)) * event.Millisecond
		w.spec = window.Spec{Mode: window.ModeTime, Length: length, SlideTime: slide}
		w.label = fmt.Sprintf("seed=%d/time=%v/slide=%v/n=%d/shed=%v/burst=%v",
			seed, length, slide, nEvents, w.shed, burst)
	}
	w.events = make([]event.Event, nEvents)
	ts := event.Time(0)
	for i := range w.events {
		if burst {
			// ~90% of events arrive back-to-back inside a burst; the
			// rest open long quiet gaps between bursts.
			if rng.Intn(10) == 0 {
				ts += event.Time(5+rng.Intn(20)) * event.Millisecond
			}
		} else {
			ts += event.Time(rng.Intn(3)) * event.Millisecond
		}
		w.events[i] = event.Event{
			Seq:  uint64(i),
			TS:   ts,
			Type: event.Type(rng.Intn(3)),
		}
	}
	switch pred {
	case predOpen:
		w.spec.Open = func(e event.Event) bool { return e.Type == typeMark }
		w.label += "/pred=open"
	case predClose:
		w.spec.Close = func(e event.Event) bool { return e.Type == typeMark && e.Seq%4 == 0 }
		w.label += "/pred=close"
	}
	return w
}

func (w propWorkload) config() Config {
	p := pattern.MustCompile(pattern.Pattern{
		Name: "seq(A;B)",
		Steps: []pattern.Step{
			{Types: []event.Type{typeA}},
			{Types: []event.Type{typeB}},
		},
	})
	cfg := Config{Operator: operator.Config{
		Window:   w.spec,
		Patterns: []*pattern.Compiled{p},
	}}
	if w.shed {
		cfg.Operator.Shedder = dropFunc(func(t event.Type, pos, ws int) bool {
			return (int(t)+pos)%3 == 0
		})
	}
	return cfg
}

// replayOperator runs the stream through a plain operator.Operator —
// Process every event, then Flush at the last timestamp — the code path
// internal/sim replays. It is the reference every pipeline must match.
func replayOperator(t testing.TB, cfg operator.Config, events []event.Event) []operator.ComplexEvent {
	t.Helper()
	op, err := operator.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []operator.ComplexEvent
	var last event.Time
	for _, ev := range events {
		out = append(out, op.Process(ev)...)
		last = ev.TS
	}
	return append(out, op.Flush(last)...)
}

// equivConfigs is the deployment sweep the equivalence checks run: every
// shard count with work stealing disabled and with it forced aggressive
// (threshold 1 plus a small processing delay so backlogs actually build
// and windows actually move). A single shard has no one to steal from,
// so it skips the delay.
func equivConfigs(base Config, shardCounts []int, steals []bool) []Config {
	var cfgs []Config
	for _, shards := range shardCounts {
		for _, steal := range steals {
			cfg := base
			cfg.Shards = shards
			cfg.StealThreshold = -1
			if steal {
				cfg.StealThreshold = 1
				if shards > 1 {
					cfg.ProcessingDelay = 5 * time.Microsecond
				}
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// streamSignature renders a complex-event stream byte-comparable:
// identity, pattern and detection time, in emission order.
func streamSignature(ces []operator.ComplexEvent) string {
	var b strings.Builder
	for _, ce := range ces {
		fmt.Fprintf(&b, "%s|%s|%d\n", ce.Key(), ce.Pattern, ce.DetectedAt)
	}
	return b.String()
}

// TestShardedEquivalenceProperty is the property sweep behind the
// one-path runtime: over randomized overlapping-window workloads (count
// and time modes, slide- and predicate-opened windows, predicate
// closes, skewed and uniform arrivals, with and without shedding),
// every pipeline in {1,2,4,8} shards emits a byte-identical
// complex-event stream to a plain operator.Operator replay — with work
// stealing disabled and with it forced aggressive. Run with -race to
// exercise the partitioner, shard, steal-ring and epoch-merge handoffs.
func TestShardedEquivalenceProperty(t *testing.T) {
	harness.VerifyNoLeaks(t)
	for _, pred := range predFlavors {
		for seed := uint64(1); seed <= 6; seed++ {
			w := makeWorkload(seed, 0, pred)
			t.Run(w.label, func(t *testing.T) {
				ref := replayOperator(t, w.config().Operator, w.events)
				want := streamSignature(ref)
				if want == "" {
					t.Skip("workload detects nothing; equivalence would be vacuous")
				}
				for _, cfg := range equivConfigs(w.config(), []int{1, 2, 4, 8}, []bool{false, true}) {
					got, _ := runCollect(t, cfg, w.events)
					if streamSignature(got) != want {
						t.Errorf("shards=%d/steal=%d: stream differs from the operator replay (%d vs %d complex events)",
							cfg.Shards, cfg.StealThreshold, len(got), len(ref))
					}
				}
			})
		}
	}
}

// FuzzShardedEquivalence lets the fuzzer search the workload space —
// window predicates and the skewed (bursty) arrival flavor baked into
// makeWorkload included — for any divergence between a plain
// operator.Operator replay and pipelines of 1, 2, 4 and 8 shards, with
// work stealing either disabled or forced aggressive.
func FuzzShardedEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(300), false)
	f.Add(uint64(7), uint16(900), true)
	f.Add(uint64(42), uint16(512), true)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, steal bool) {
		nEvents := int(n)%1000 + 50 // bound the per-input cost
		w := makeWorkload(seed, nEvents, predFlavors[seed%uint64(len(predFlavors))])
		want := streamSignature(replayOperator(t, w.config().Operator, w.events))
		for _, cfg := range equivConfigs(w.config(), []int{1, 2, 4, 8}, []bool{steal}) {
			if got, _ := runCollect(t, cfg, w.events); streamSignature(got) != want {
				t.Fatalf("%s shards=%d steal=%v: stream differs from the operator replay",
					w.label, cfg.Shards, steal)
			}
		}
	})
}
