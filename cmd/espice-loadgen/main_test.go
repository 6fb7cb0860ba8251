package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/harness"
)

// TestLoadgenSelftest runs the whole command in -selftest mode: spin up
// the loopback server, drive it over 4 connections, and write the JSON
// summary artifact — the exact invocation CI uses.
func TestLoadgenSelftest(t *testing.T) {
	harness.VerifyNoLeaks(t)
	jsonOut := filepath.Join(t.TempDir(), "summary.json")
	var out strings.Builder
	err := run(loadgenOpts{
		seconds:  120,
		seed:     1,
		events:   30000,
		rate:     0,
		conns:    4,
		batch:    256,
		jsonOut:  jsonOut,
		selftest: true,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	blob, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var sum summary
	if err := json.Unmarshal(blob, &sum); err != nil {
		t.Fatalf("summary artifact: %v\n%s", err, blob)
	}
	if sum.Sent != 30000 || sum.Accepted != 30000 {
		t.Errorf("ledger: sent=%d accepted=%d, want 30000 each", sum.Sent, sum.Accepted)
	}
	if sum.FlushLatency.Count == 0 {
		t.Error("no flush latencies recorded")
	}
	if len(sum.ServerStats) == 0 {
		t.Error("no server stats document collected")
	}
	if !strings.Contains(out.String(), "summary written to") {
		t.Errorf("missing artifact confirmation:\n%s", out.String())
	}
}

// TestLoadgenPaced covers the rate-paced path (low budget, high rate so
// the test stays fast) and the uneven events/conns remainder.
func TestLoadgenPaced(t *testing.T) {
	harness.VerifyNoLeaks(t)
	var out strings.Builder
	err := run(loadgenOpts{
		seconds:  60,
		seed:     2,
		events:   10001,
		rate:     2_000_000,
		conns:    3,
		batch:    128,
		selftest: true,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "sent 10001, accepted 10001") {
		t.Errorf("remainder events lost:\n%s", out.String())
	}
}

// TestLoadgenDurableLedger covers -session/-ledger: durable sessions
// against the selftest server with the producer fingerprint emitted.
func TestLoadgenDurableLedger(t *testing.T) {
	harness.VerifyNoLeaks(t)
	var out strings.Builder
	err := run(loadgenOpts{
		seconds:  60,
		seed:     1,
		events:   8000,
		rate:     0,
		conns:    2,
		batch:    128,
		selftest: true,
		session:  501,
		ledger:   true,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "sent 8000, accepted 8000") {
		t.Errorf("durable ledger incomplete:\n%s", out.String())
	}
	// The producer fingerprint is deterministic: seqs ci<<40 ..
	// ci<<40+perConn-1 for ci in 1..2.
	var wantSum, wantXor, wantCount uint64
	for ci := uint64(0); ci < 2; ci++ {
		for i := uint64(0); i < 4000; i++ {
			seq := ci<<40 + i
			wantCount++
			wantSum += seq
			wantXor ^= seq
		}
	}
	want := fmt.Sprintf("ledger: count %d sum %d xor %d", wantCount, wantSum, wantXor)
	if !strings.Contains(out.String(), want) {
		t.Errorf("missing %q in output:\n%s", want, out.String())
	}
}

// TestTilerNeverRewinds pins the tiled replay: across tile boundaries
// event time keeps moving forward, and each tile starts tileGap after
// the previous one ended, so windows close at the boundary instead of
// piling up over a rewound clock.
func TestTilerNeverRewinds(t *testing.T) {
	base := []event.Event{{TS: 5 * event.Second}, {TS: 6 * event.Second}, {TS: 9 * event.Second}}
	tiles := newTiler(base)
	prev := tiles.event()
	for i := 1; i < 4*len(base); i++ {
		ev := tiles.event()
		if ev.TS < prev.TS {
			t.Fatalf("event %d: timestamp rewound from %d to %d", i, prev.TS, ev.TS)
		}
		if i%len(base) == 0 && ev.TS-prev.TS != tileGap {
			t.Errorf("event %d: tile starts %d after the previous tile, want %d", i, ev.TS-prev.TS, tileGap)
		}
		prev = ev
	}
}
