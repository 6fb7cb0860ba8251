package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/harness"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/tesla"
	"repro/internal/transport"
	"repro/internal/wal"
)

// childEnv makes the test binary act as a child process for
// TestProcessUsage.
const childEnv = "PERFBENCH_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "burn" {
		burn()
		return
	}
	os.Exit(m.Run())
}

// burn holds 64 MiB resident and spins for 300 ms of CPU.
func burn() {
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	end := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(end) {
		x += int(buf[x%len(buf)])
	}
	if x == -1 {
		os.Exit(2)
	}
}

func rtls(t *testing.T, seconds int, seed int64) (*datasets.RTLSMeta, []event.Event) {
	t.Helper()
	meta, evs, err := datasets.GenerateRTLS(datasets.RTLSConfig{DurationSec: seconds, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return meta, evs
}

func TestStreamKeepsEventTimeAndSeqs(t *testing.T) {
	_, base := rtls(t, 60, 1)
	st := newStream(base, 5*seqStride)
	evs := st.fill(nil, 3*len(base)+len(base)/2)
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("event %d: time rewinds from %v to %v", i, evs[i-1].TS, evs[i].TS)
		}
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("event %d: seq %d follows %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
	if evs[0].Seq != 5*seqStride {
		t.Fatalf("first seq %d, want %d", evs[0].Seq, uint64(5*seqStride))
	}
	for k := 1; k <= 3; k++ {
		last, first := evs[k*len(base)-1], evs[k*len(base)]
		if gap := first.TS - last.TS; gap != tileGap {
			t.Fatalf("tile %d starts %v after the previous tile ends, want %v", k, gap, tileGap)
		}
	}
	if tiles, partial := st.position(); tiles != 3 || partial != len(base)/2 {
		t.Fatalf("position = %d tiles + %d, want 3 + %d", tiles, partial, len(base)/2)
	}
}

func TestStreamSeedDeterminism(t *testing.T) {
	gen := func(seed int64) []event.Event {
		_, base := rtls(t, 60, seed)
		return newStream(base, 0).fill(nil, 2*len(base))
	}
	a, b, c := gen(7), gen(7), gen(8)
	if len(a) != len(b) {
		t.Fatalf("same seed, lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i].TS != b[i].TS || a[i].Type != b[i].Type || a[i].Seq != b[i].Seq || a[i].Kind != b[i].Kind {
			t.Fatalf("same seed differs at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i].TS == c[i].TS && a[i].Type == c[i].Type
	}
	if same {
		t.Fatal("seeds 7 and 8 generated the same stream")
	}
}

// TestReferenceCount checks the additive reference against one replay
// of the whole materialized stream, for Q1 and for a tenant's filtered
// stream.
func TestReferenceCount(t *testing.T) {
	meta, base := rtls(t, 1200, 3)
	q1, err := queries.Q1(meta, 4, pattern.SelectFirst, 15)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := tesla.ParseMulti(markQueries, tesla.Env{Registry: meta.Registry, Schema: meta.Schema})
	if err != nil {
		t.Fatal(err)
	}
	cases := []connSpec{{base: base, query: q1}, {base: engine.FilterStream(qs[0], base), query: qs[0]}}
	for _, c := range cases {
		st := newStream(c.base, 0)
		all := st.fill(nil, 3*len(c.base)+len(c.base)/3)
		op, err := c.newOp()
		if err != nil {
			t.Fatal(err)
		}
		out, err := sim.ReplayUnshed(all, op)
		if err != nil {
			t.Fatal(err)
		}
		tiles, partial := st.position()
		ref, err := referenceCount(c.newOp, c.base, tiles, partial)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 || ref != len(out) {
			t.Fatalf("%s: reference %d, replay of the whole stream %d", c.query.Name, ref, len(out))
		}
	}
}

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if q := percentile(xs, 0.5); q.Value != 50 || q.N != 100 || q.Beyond != 50 {
		t.Fatalf("p50 = %+v", q)
	}
	q := percentile(xs, 0.99)
	if q.Value != 99 || q.Beyond != 1 || q.supported() {
		t.Fatalf("p99 of 100 = %+v, supported %v", q, q.supported())
	}
	for i := 0; i < 900; i++ {
		xs = append(xs, 0.5)
	}
	if q := percentile(xs, 0.99); q.Value != 90 || q.N != 1000 || q.Beyond != 10 || !q.supported() {
		t.Fatalf("p99 of 1000 = %+v", q)
	}
	if q := percentile([]float64{3, 3, 3}, 0.99); q.Value != 3 || q.Beyond != 0 {
		t.Fatalf("p99 of ties = %+v", q)
	}
	if q := percentile(nil, 0.5); q != (quantile{}) {
		t.Fatalf("empty = %+v", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestSliceQuantiles(t *testing.T) {
	// Two seconds of samples: 1 ms in the first, 5 ms in the second,
	// with a 100 ms stall at the very end.
	var lat, at []float64
	for i := 0; i < 2000; i++ {
		lat = append(lat, float64(1+4*(i/1000)))
		at = append(at, float64(i)/1000)
	}
	lat = append(lat, 100)
	at = append(at, 2)
	qs := sliceQuantiles(lat, at, 2, 0.5)
	if len(qs) != 2 || qs[0].Value != 1 || qs[1].Value != 5 || qs[0].N != 1000 || qs[1].N != 1001 {
		t.Fatalf("slices = %+v", qs)
	}
	if qs := sliceQuantiles(nil, nil, 4, 0.99); qs != nil {
		t.Fatalf("no samples gave %+v", qs)
	}
}

func TestTally(t *testing.T) {
	var tl tally
	tl.op(nil)
	tl.op(errors.New("refused"))
	tl.ops(10, 2, "batches")
	tl.check(true, "fine")
	tl.check(false, "count %d", 3)
	if tl.attempted != 14 || tl.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 14 and 4", tl.attempted, tl.failed)
	}
	if got := tl.failPct(); got < 28.57 || got > 28.58 {
		t.Fatalf("failPct = %v", got)
	}
	if len(tl.notes) != 3 || !strings.Contains(tl.notes[2], "count 3") {
		t.Fatalf("notes = %q", tl.notes)
	}
	var empty tally
	if empty.failPct() != 100 {
		t.Fatal("a run that attempted nothing must not pass")
	}
}

func TestProcessUsage(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), childEnv+"=burn")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := procCPU(cmd.Process.Pid); err != nil {
		t.Errorf("procCPU of a running child: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	use := processUsage(cmd.ProcessState)
	if use.CPU < 200*time.Millisecond {
		t.Errorf("child CPU %v, want about 300ms", use.CPU)
	}
	if use.PeakRSS < 64<<20 {
		t.Errorf("child peak RSS %d bytes, want at least 64 MiB", use.PeakRSS)
	}
	if selfCPU() <= 0 || selfPeakRSS() <= 0 {
		t.Error("own rusage not captured")
	}
}

func TestReadStderr(t *testing.T) {
	s := &sut{final: make(chan []byte, 1)}
	listening := make(chan string, 1)
	log := "espice-serve: listening on 127.0.0.1:4242 (serial pipeline)\n" +
		"some log line\n" +
		`espice-serve: final {"processed":7,"complex_events":3,"ledger":{"count":7,"sum":21,"xor":7}}` + "\n"
	s.readStderr(strings.NewReader(log), listening)
	if addr := <-listening; addr != "127.0.0.1:4242" {
		t.Fatalf("addr %q", addr)
	}
	doc, err := parseDoc(<-s.final)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Processed != 7 || doc.ComplexEvents != 3 || doc.Ledger == nil || *doc.Ledger != (seqLedger{7, 21, 7}) {
		t.Fatalf("doc = %+v", doc)
	}
}

type plainSink struct{ n int }

func (p *plainSink) SubmitBatch(evs []event.Event) { p.n += len(evs) }

type tenantSink struct{ plainSink }

func (p *tenantSink) SubmitTenantBatch(_ string, evs []event.Event) { p.n += len(evs) }

type plainJournal struct{}

func (plainJournal) Append(uint64, uint64, int, event.Time, []byte) (uint64, error) { return 1, nil }
func (plainJournal) Commit(uint64) error                                            { return nil }

type plainDecider struct{}

func (plainDecider) Drop(event.Type, int, int) bool { return true }

// TestWrappersKeepInterfaces: a traced wrapper must offer exactly the
// optional interfaces of what it wraps, or the traced program would
// take another code path than the timed one.
func TestWrappersKeepInterfaces(t *testing.T) {
	tr := newTracer()
	s, _ := wrapSink(&tenantSink{}, tr, 1)
	if _, ok := s.(transport.TenantSink); !ok {
		t.Error("wrapped TenantSink lost SubmitTenantBatch")
	}
	s, _ = wrapSink(&plainSink{}, tr, 1)
	if _, ok := s.(transport.TenantSink); ok {
		t.Error("wrapped plain Sink gained SubmitTenantBatch")
	}

	wlog, err := wal.Open(wal.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	j, _ := wrapJournal(walJournal{wlog}, tr, 2)
	if _, ok := j.(transport.JournalHealth); !ok {
		t.Error("wrapped JournalHealth lost Degraded")
	}
	j, _ = wrapJournal(plainJournal{}, tr, 2)
	if _, ok := j.(transport.JournalHealth); ok {
		t.Error("wrapped plain Journal gained Degraded")
	}

	meta, evs := rtls(t, 600, 1)
	q, err := queries.Q1(meta, 4, pattern.SelectFirst, 15)
	if err != nil {
		t.Fatal(err)
	}
	trn, err := harness.Train(q, evs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	shedder, err := core.NewShedder(trn.Model)
	if err != nil {
		t.Fatal(err)
	}
	d, counter := wrapDecider(shedder)
	b, ok := d.(operator.BatchingDecider)
	if !ok {
		t.Fatal("wrapped BatchingDecider lost DropCounted/TallyDecisions")
	}
	b.TallyDecisions(5, 2)
	if counter.decisions.Load() != 5 || counter.drops.Load() != 2 || shedder.Decisions() != 5 || shedder.Drops() != 2 {
		t.Errorf("tally not counted and forwarded: wrapper %d/%d, shedder %d/%d",
			counter.decisions.Load(), counter.drops.Load(), shedder.Decisions(), shedder.Drops())
	}
	d, counter = wrapDecider(plainDecider{})
	if _, ok := d.(operator.BatchingDecider); ok {
		t.Error("wrapped plain Decider gained the batching extension")
	}
	if !d.Drop(0, 0, 1) || counter.decisions.Load() != 1 || counter.drops.Load() != 1 {
		t.Error("plain decision not counted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric
// tables in step.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, w.Name, workloads[i])
		}
	}
	same := func(what string, json []struct{ Name, Unit string }, prog []metricDef) {
		if len(json) != len(prog) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(json), len(prog))
		}
		for i, m := range json {
			if m.Name != prog[i].name || m.Unit != prog[i].unit {
				t.Errorf("%s %d: %s %s in BENCHMARK.json, %s %s in the program", what, i, m.Name, m.Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
