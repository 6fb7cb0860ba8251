package main

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/operator"
	"repro/internal/sim"
)

// tileGap is the event-time gap between the last event of one tile and
// the first event of the next. It exceeds every window this benchmark
// runs (15 s), so no window spans two tiles: event time keeps moving
// forward, windows close at the tile boundary, and the complex events
// of a tiled stream are the sum of those of its tiles.
const tileGap = 60 * event.Second

// stream tiles a base dataset into an unbounded event stream. Tile k is
// the base shifted forward by k periods of event time, so timestamps
// never rewind, and every event gets a fresh sequence number, so seqs
// stay unique however many tiles are sent.
type stream struct {
	base   []event.Event
	period event.Time
	seq    uint64
	next   int   // index into base of the next event
	tiles  int64 // complete tiles emitted so far
}

// newStream tiles base (non-empty, in timestamp order); sequence
// numbers start at seqBase, so streams with disjoint bases can share a
// server without colliding.
func newStream(base []event.Event, seqBase uint64) *stream {
	return &stream{
		base:   base,
		period: base[len(base)-1].TS - base[0].TS + tileGap,
		seq:    seqBase,
	}
}

// fill appends the next n events to dst.
func (s *stream) fill(dst []event.Event, n int) []event.Event {
	for k := 0; k < n; k++ {
		ev := s.base[s.next]
		ev.TS += event.Time(s.tiles) * s.period
		ev.Seq = s.seq
		s.seq++
		dst = append(dst, ev)
		if s.next++; s.next == len(s.base) {
			s.next = 0
			s.tiles++
		}
	}
	return dst
}

// position reports how much of the stream has been emitted: complete
// tiles plus the length of the partial tile.
func (s *stream) position() (tiles int64, partial int) { return s.tiles, s.next }

// unshedCount replays events through a fresh operator with no shedding
// (sim.ReplayUnshed, the repository's ground-truth pass) and returns
// the number of complex events.
func unshedCount(newOp func() (*operator.Operator, error), events []event.Event) (int, error) {
	if len(events) == 0 {
		return 0, nil
	}
	op, err := newOp()
	if err != nil {
		return 0, err
	}
	out, err := sim.ReplayUnshed(events, op)
	if err != nil {
		return 0, fmt.Errorf("reference replay: %w", err)
	}
	return len(out), nil
}

// referenceCount is the unshed complex-event count of the first
// tiles*len(base)+partial events of a stream tiled from base. Tiles are
// separated by tileGap, so the count is additive over tiles and a shift
// in event time does not change a tile's count; TestReferenceCount
// checks this against one replay of the whole materialized stream.
func referenceCount(newOp func() (*operator.Operator, error), base []event.Event, tiles int64, partial int) (int, error) {
	full, err := unshedCount(newOp, base)
	if err != nil {
		return 0, err
	}
	part, err := unshedCount(newOp, base[:partial])
	if err != nil {
		return 0, err
	}
	return int(tiles)*full + part, nil
}
