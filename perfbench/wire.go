package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/operator"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/tesla"
	"repro/internal/transport"
)

// rtlsSeconds is the dataset length espice-serve generates by default
// for its registry and training data; the benchmark tiles the same
// dataset, so the server is trained on the stream it receives.
const rtlsSeconds = 900

// markQueries are the two tenant-scoped queries of the durable
// workload (the fairness soak's pair): each tenant's striker marked by
// the other team's defenders.
const markQueries = `
define MarkA
from seq(STR_A where kind = possession; any 2 distinct of DEF_B00, DEF_B01, DEF_B02, DEF_B03 where kind = defend)
within 15s
open STR_A
anchored

define MarkB
from seq(STR_B where kind = possession; any 2 distinct of DEF_A00, DEF_A01, DEF_A02, DEF_A03 where kind = defend)
within 15s
open STR_B
anchored
`

// wireSpec describes a workload driven over the wire.
type wireSpec struct {
	name  string
	rate  float64 // total offered ev/s; 0 runs a closed loop
	batch int     // events per producer batch
	// credit is the server's per-connection credit window (0 keeps the
	// espice-serve default). The durable workload sets it to half a
	// batch, so every Flush writes half a batch, waits for its
	// grant-back — sent only after the server journaled it and the sink
	// accepted it — and writes the other half.
	credit  int
	durable bool // engine mode, write-ahead log, tenants, sessions
	bound   time.Duration
	conns   []connSpec
}

// connSpec is one producer connection and the query that receives its
// events.
type connSpec struct {
	tenant  string
	token   string
	session uint64
	base    []event.Event // the tile this connection repeats
	query   queries.Query
}

func (c connSpec) newOp() (*operator.Operator, error) {
	return operator.New(operator.Config{Window: c.query.Window, Patterns: c.query.Patterns})
}

// seqStride separates the sequence ranges of different connections.
const seqStride = 1 << 40

// wireQ1 is espice-serve with its defaults: serial Q1 (n=4) pipeline,
// eSPICE armed with LB 500 ms, no WAL, no tenants; one producer in a
// closed loop.
func wireQ1(seed int64) (wireSpec, error) {
	meta, events, err := datasets.GenerateRTLS(datasets.RTLSConfig{DurationSec: rtlsSeconds, Seed: seed})
	if err != nil {
		return wireSpec{}, err
	}
	q, err := queries.Q1(meta, 4, pattern.SelectFirst, 15)
	if err != nil {
		return wireSpec{}, err
	}
	return wireSpec{
		name:  "wire-q1",
		batch: transport.DefaultBatchEvents,
		bound: 500 * time.Millisecond,
		conns: []connSpec{{base: events, query: q}},
	}, nil
}

// durableRate is the durable workload's total offered rate: about half
// a CPU of server work on a 2-CPU machine, well under capacity.
const durableRate = 100000

// durableTenants is the engine deployment with two tenant-scoped
// queries, the write-ahead log on and effectively-once sessions; each
// tenant's connection carries only its query's event types, in an open
// loop at durableRate.
func durableTenants(seed int64) (wireSpec, error) {
	meta, events, err := datasets.GenerateRTLS(datasets.RTLSConfig{DurationSec: rtlsSeconds, Seed: seed})
	if err != nil {
		return wireSpec{}, err
	}
	qs, err := tesla.ParseMulti(markQueries, tesla.Env{Registry: meta.Registry, Schema: meta.Schema})
	if err != nil {
		return wireSpec{}, err
	}
	sp := wireSpec{
		name:    "durable-tenants",
		rate:    durableRate,
		batch:   128,
		credit:  64,
		durable: true,
		bound:   500 * time.Millisecond,
	}
	for i, q := range qs {
		sp.conns = append(sp.conns, connSpec{
			tenant:  "tenant-" + q.Name,
			token:   "tok-" + q.Name,
			session: uint64(i + 1),
			base:    engine.FilterStream(q, events),
			query:   q,
		})
	}
	return sp, nil
}

// serveArgs writes the server's input files into dir and returns its
// command line.
func (sp wireSpec) serveArgs(dir string, seed int64) ([]string, error) {
	args := []string{"-addr", "127.0.0.1:0", "-seed", strconv.FormatInt(seed, 10), "-report", "0"}
	if sp.credit > 0 {
		args = append(args, "-credit", strconv.Itoa(sp.credit))
	}
	if !sp.durable {
		return args, nil
	}
	qfile := filepath.Join(dir, "queries.tesla")
	if err := os.WriteFile(qfile, []byte(markQueries), 0o644); err != nil {
		return nil, err
	}
	var specs []map[string]any
	for _, c := range sp.conns {
		q := sp.quota()
		specs = append(specs, map[string]any{
			"name": c.tenant, "token": c.token, "window": q.Window,
			"rate": q.Rate, "burst": q.Burst, "weight": 1,
			"queries": []string{c.query.Name},
		})
	}
	blob, err := json.Marshal(specs)
	if err != nil {
		return nil, err
	}
	tfile := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(tfile, blob, 0o644); err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(dir, "wal-")
	if err != nil {
		return nil, err
	}
	return append(args, "-queries", qfile, "-tenants", tfile, "-wal", walDir), nil
}

// quota is every tenant's admission quota. It sits well above the
// offered rate, so admission is exercised on every batch but never
// throttles.
func (sp wireSpec) quota() transport.TenantQuota {
	perTenant := sp.rate / float64(len(sp.conns))
	return transport.TenantQuota{Window: 4 * sp.credit, Rate: 4 * perTenant, Burst: 4 * perTenant}
}

// dial opens the connection's producer client.
func (sp wireSpec) dial(addr string, c connSpec) (*transport.Client, error) {
	return transport.Dial(transport.ClientConfig{
		Addr:        addr,
		BatchEvents: sp.batch,
		Reconnect:   sp.durable,
		Session:     c.session,
		Token:       c.token,
	})
}

// load is what all connections of one run measured.
type load struct {
	conns     []connLoad
	clients   []transport.ClientStats
	streams   []*stream
	start     time.Time
	drained   time.Time // when the server reported every sent event processed
	sent      uint64
	closeErrs []error
	// cpu samples the server's CPU at the run's start and then every
	// latSlices-th of its length: consecutive samples bound the slices
	// throughput and CPU per event are measured over.
	cpu []cpuSample
}

type cpuSample struct {
	at  float64 // seconds since start
	cpu time.Duration
}

// drive runs the workload's producers against addr for d, sampling the
// server's CPU through cpuOf, waits until the server reports every sent
// event processed and closes the clients.
func (sp wireSpec) drive(addr string, d time.Duration, cpuOf func() (time.Duration, error)) (*load, error) {
	var clients []*transport.Client
	for _, c := range sp.conns {
		cl, err := sp.dial(addr, c)
		if err != nil {
			for _, open := range clients {
				_, _ = open.Close()
			}
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		clients = append(clients, cl)
	}
	ld := &load{conns: make([]connLoad, len(sp.conns))}
	for i, c := range sp.conns {
		ld.streams = append(ld.streams, newStream(c.base, uint64(i)*seqStride))
	}
	var sampleErr error
	sample := func() {
		c, err := cpuOf()
		if err != nil && sampleErr == nil {
			sampleErr = err
		}
		ld.cpu = append(ld.cpu, cpuSample{time.Since(ld.start).Seconds(), c})
	}
	ld.start = time.Now()
	sample()
	end := ld.start.Add(d)
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(d / latSlices)
		defer tick.Stop()
		for k := 1; k < latSlices; k++ {
			select {
			case <-tick.C:
				sample()
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := range sp.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if sp.rate == 0 {
				ld.conns[i] = driveClosed(clients[i], ld.streams[i], sp.batch, ld.start, end)
			} else {
				phase := float64(i) / float64(len(sp.conns))
				ld.conns[i] = driveOpen(clients[i], ld.streams[i], sp.batch, sp.rate/float64(len(sp.conns)), phase, ld.start, end)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-sampled
	sample()
	for i := range clients {
		ld.sent += clients[i].Stats().Sent
	}
	var drainErr error
	ld.drained, drainErr = waitProcessed(clients[0], ld.sent, 60*time.Second)
	for _, cl := range clients {
		st, err := cl.Close()
		ld.clients = append(ld.clients, st)
		ld.closeErrs = append(ld.closeErrs, err)
	}
	return ld, errors.Join(drainErr, sampleErr)
}

// sliceRates measures the run in the slices between consecutive CPU
// samples: the events acknowledged (Flush returned) per second, and the
// server's CPU per acknowledged event. The server's bounded queue makes
// the acknowledgement rate its processing rate in steady state.
func (ld *load) sliceRates(batch int) (rates, cpuPerEv []float64) {
	for k := 1; k < len(ld.cpu); k++ {
		from, to := ld.cpu[k-1], ld.cpu[k]
		n := 0
		for _, cl := range ld.conns {
			for _, t := range cl.done {
				if t >= from.at && t < to.at {
					n++
				}
			}
		}
		events := float64(n * batch)
		if events == 0 || to.at <= from.at {
			continue
		}
		rates = append(rates, events/(to.at-from.at))
		cpuPerEv = append(cpuPerEv, us(to.cpu-from.cpu)/events)
	}
	return rates, cpuPerEv
}

// waitProcessed polls the server's stats until it reports at least
// want events processed and returns when it saw that.
func waitProcessed(c *transport.Client, want uint64, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		raw, err := c.ServerStats()
		if err != nil {
			return time.Now(), fmt.Errorf("stats: %w", err)
		}
		doc, err := parseDoc(raw)
		if err != nil {
			return time.Now(), err
		}
		now := time.Now()
		if doc.Processed >= want {
			return now, nil
		}
		if now.After(deadline) {
			return now, fmt.Errorf("server processed %d of %d events after %v", doc.Processed, want, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// reference is the unshed complex-event count of everything the
// producers sent, summed over connections.
func (sp wireSpec) reference(ld *load) (int, error) {
	total := 0
	for i, c := range sp.conns {
		tiles, partial := ld.streams[i].position()
		n, err := referenceCount(c.newOp, c.base, tiles, partial)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// runWire is a timed run: the workload against an espice-serve process
// built from the checkout, measured from outside it.
func runWire(sp wireSpec, o options) (*report, error) {
	dir, err := os.MkdirTemp(o.work, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var setups []float64
	var s *sut
	for i := 0; i < setupRuns; i++ {
		args, err := sp.serveArgs(dir, o.seed)
		if err != nil {
			return nil, err
		}
		srv, err := startSUT(o.serve, args, 150*time.Second)
		if err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup.Seconds())
		if i == setupRuns-1 {
			s = srv
			break
		}
		if _, err := srv.stop(30 * time.Second); err != nil {
			return nil, err
		}
	}
	pid := s.cmd.Process.Pid
	ld, driveErr := sp.drive(s.addr, o.seconds, func() (time.Duration, error) { return procCPU(pid) })
	if ld == nil {
		_, _ = s.stop(0)
		return nil, driveErr
	}
	raw, stopErr := s.stop(60 * time.Second)
	use := processUsage(s.cmd.ProcessState)

	r := newReport()
	r.t.op(driveErr)
	r.t.op(stopErr)
	final, err := parseDoc(raw)
	r.t.op(err)
	r.set("setup_s", "s", median(setups))
	r.set("mem_peak_mb", "MiB", float64(use.PeakRSS)/(1<<20))
	r.linef("server: %.3f s CPU over its lifetime, set-up and drain included", use.CPU.Seconds())
	if err := sp.judge(r, ld, final); err != nil {
		return nil, err
	}
	return r, nil
}

// judge accounts a drained run's operations, runs its output checks
// and sets the metrics both the timed and the traced run measure.
func (sp wireSpec) judge(r *report, ld *load, final serverDoc) error {
	var lat, late []float64
	var batches, failed int64
	var prod seqLedger
	var redials, retransmits uint64
	var done []float64
	for i, cl := range ld.conns {
		lat = append(lat, cl.lat...)
		done = append(done, cl.done...)
		late = append(late, cl.late...)
		batches += cl.batches
		if cl.err != nil {
			failed++
			r.linef("connection %d stopped: %v", i, cl.err)
		}
		prod.merge(cl.ledger)
		redials += ld.clients[i].Redials
		retransmits += ld.clients[i].Retransmits
		r.t.op(ld.closeErrs[i])
	}
	// A retransmitted batch is a retried operation.
	r.t.ops(batches, failed+int64(retransmits), "batches")
	r.t.check(redials == 0, "%d redials", redials)

	ref, err := sp.reference(ld)
	if err != nil {
		return err
	}
	// The whole-run rate counts until the server reported every sent
	// event processed; the reported figures are slice medians, so a
	// stall of the shared machine moves the slices it falls in.
	elapsed := ld.drained.Sub(ld.start)
	tput := float64(ld.sent) / elapsed.Seconds()
	rates, cpuPerEv := ld.sliceRates(sp.batch)
	r.set("throughput_ev_s", "1/s", median(rates))
	r.set("cpu_us_per_ev", "us", median(cpuPerEv))
	r.linef("slices: %.0f ev/s; %.3f us CPU/ev", rates, cpuPerEv)
	r.t.check(len(rates) == latSlices, "%d of %d slices measured", len(rates), latSlices)
	setLatency(r, lat, done, sp.bound)
	setQuality(r, ref, int(final.ComplexEvents))

	r.t.check(final.Processed == ld.sent && final.Submitted == ld.sent,
		"server submitted %d, processed %d of %d sent", final.Submitted, final.Processed, ld.sent)
	r.t.check(final.ComplexEvents == uint64(ref), "complex events %d, unshed reference %d", final.ComplexEvents, ref)
	r.t.check(final.Shed == 0, "%d memberships shed", final.Shed)
	if sp.durable {
		ok := final.Ledger != nil && *final.Ledger == prod
		r.t.check(ok, "producer ledger %+v, server ledger %+v", prod, final.Ledger)
	}
	if sp.rate > 0 {
		// The open loop is valid only if the generator kept its schedule.
		r.t.check(tput >= 0.95*sp.rate, "achieved %.0f ev/s of %.0f offered", tput, sp.rate)
	}
	r.linef("%s: sent %d events in %d batches over %d connection(s), drained after %.3fs: %.0f ev/s",
		sp.name, ld.sent, batches, len(ld.conns), elapsed.Seconds(), tput)
	r.linef("output: %d complex events (unshed reference %d), %d memberships, %d shed, %d redials, %d retransmits",
		final.ComplexEvents, ref, final.Memberships, final.Shed, redials, retransmits)
	if len(late) > 0 {
		q := percentile(late, 0.99)
		r.linef("generator: p99 lateness %.3f ms over %d batches", q.Value, q.N)
		r.set("gen.late_ms_p99", "ms", q.Value)
	} else {
		r.set("gen.late_ms_p99", "ms", 0)
	}
	return nil
}

// latSlices is how many consecutive time slices a run's latency samples
// are cut into: each reported percentile is the median of the slices'
// percentiles, so a stall of the shared machine (its neighbours can
// stop this VM for tens of milliseconds) moves the slices it falls in,
// not the figure.
const latSlices = 10

// setLatency sets the latency percentiles and the share of samples
// within the latency bound from per-batch latencies and the times (s
// since start) they completed. Only the p50 is an end-to-end figure:
// on a shared 2-CPU machine the p90 and p99 of the durable workload do
// not repeat within a tenth from run to run (its disk is shared too),
// so they are reported, not bounded. A p90 without ten samples beyond
// it in every slice fails the run.
func setLatency(r *report, lat, done []float64, bound time.Duration) {
	sliced := func(p float64) (float64, []float64, bool) {
		var vs []float64
		supported := true
		for _, q := range sliceQuantiles(lat, done, latSlices, p) {
			vs = append(vs, q.Value)
			supported = supported && q.supported()
		}
		return median(vs), vs, supported && len(vs) == latSlices
	}
	p50, _, _ := sliced(0.50)
	p90, _, supported := sliced(0.90)
	p99, p99s, p99supported := sliced(0.99)
	whole := percentile(lat, 0.99)
	met := 0
	for _, v := range lat {
		if v <= ms(bound) {
			met++
		}
	}
	r.set("lat_p50_ms", "ms", p50)
	r.set("lat.p90_ms", "ms", p90)
	r.set("lat.p99_ms", "ms", p99)
	r.set("lb_met_pct", "%", 100*float64(met)/float64(max(len(lat), 1)))
	r.set("lat.samples", "count", float64(len(lat)))
	r.linef("latency over %d samples: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms (slices %.3f, ten samples beyond each: %v; whole run %.4f ms, %d beyond); %d within LB %v",
		whole.N, p50, p90, p99, p99s, p99supported, whole.Value, whole.Beyond, met, bound)
	r.t.check(supported, "p90 lacks ten samples beyond it in some of %d slices", latSlices)
}

// setQuality sets recall and precision of a live run from complex-event
// counts: the live output must equal the unshed reference, so any
// difference counts as missed or false events.
func setQuality(r *report, truth, detected int) {
	tp := min(truth, detected)
	r.set("recall_pct", "%", 100*float64(tp)/float64(max(truth, 1)))
	r.set("precision_pct", "%", 100*float64(tp)/float64(max(detected, 1)))
}
