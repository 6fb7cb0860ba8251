package main

import (
	"runtime"
	"time"

	"repro/internal/event"
	"repro/internal/transport"
)

// seqLedger fingerprints event sequence numbers order-independently, in
// the shape espice-serve reports its delivery ledger (count/sum/xor):
// equal fingerprints on a drained durable run mean every sent event was
// delivered exactly once.
type seqLedger struct {
	Count, Sum, Xor uint64
}

func (l *seqLedger) add(evs []event.Event) {
	for i := range evs {
		l.Count++
		l.Sum += evs[i].Seq
		l.Xor ^= evs[i].Seq
	}
}

func (l *seqLedger) merge(o seqLedger) {
	l.Count += o.Count
	l.Sum += o.Sum
	l.Xor ^= o.Xor
}

// connLoad is what one producer connection measured.
type connLoad struct {
	lat     []float64 // per batch, ms from due (open) or submit (closed) time to Flush return
	done    []float64 // per batch, seconds from the run's start to Flush return
	late    []float64 // open loop: ms a batch's submit started after its due time
	batches int64
	ledger  seqLedger // sequence numbers of the batches sent without error
	err     error     // the failure that stopped this producer, if any
}

// sendBatch submits one batch and flushes it.
func sendBatch(c *transport.Client, buf []event.Event) error {
	if err := c.SubmitBatch(buf); err != nil {
		return err
	}
	return c.Flush()
}

// driveClosed sends batches back to back until end: the next batch is
// submitted as soon as Flush returns for the previous one, so the
// server's credit grant-back paces the producer.
func driveClosed(c *transport.Client, st *stream, batch int, start, end time.Time) connLoad {
	var cl connLoad
	buf := make([]event.Event, 0, batch)
	for time.Now().Before(end) {
		buf = st.fill(buf[:0], batch)
		t0 := time.Now()
		err := sendBatch(c, buf)
		t1 := time.Now()
		cl.lat = append(cl.lat, ms(t1.Sub(t0)))
		cl.done = append(cl.done, t1.Sub(start).Seconds())
		cl.account(buf, err)
		if err != nil {
			break
		}
	}
	return cl
}

// driveOpen sends one batch every batch/rate seconds from start until
// end, whatever the server does: a stalled Flush makes the following
// batches late, and their latency counts from their due time. phase
// (a fraction of the interval) offsets this producer's schedule, so
// independent producers do not all send at the same instants.
func driveOpen(c *transport.Client, st *stream, batch int, rate, phase float64, start, end time.Time) connLoad {
	var cl connLoad
	buf := make([]event.Event, 0, batch)
	interval := time.Duration(float64(batch) / rate * float64(time.Second))
	first := start.Add(time.Duration(phase * float64(interval)))
	for k := 0; ; k++ {
		due := first.Add(time.Duration(k) * interval)
		if !due.Before(end) {
			break
		}
		sleepUntil(due)
		buf = st.fill(buf[:0], batch)
		cl.late = append(cl.late, ms(max(0, time.Since(due))))
		err := sendBatch(c, buf)
		t1 := time.Now()
		cl.lat = append(cl.lat, ms(t1.Sub(due)))
		cl.done = append(cl.done, t1.Sub(start).Seconds())
		cl.account(buf, err)
		if err != nil {
			break
		}
	}
	return cl
}

// account counts one batch; the producer loops stop at the first failed
// one.
func (cl *connLoad) account(buf []event.Event, err error) {
	cl.batches++
	if err != nil {
		cl.err = err
		return
	}
	cl.ledger.add(buf)
}

// sleepSpin is how long before a due time sleepUntil stops sleeping and
// yields in a loop instead: a timer sleep here overshoots by about
// 0.25 ms, which would otherwise show up as latency of the system
// under test.
const sleepSpin = 300 * time.Microsecond

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > sleepSpin {
		time.Sleep(d - sleepSpin)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
