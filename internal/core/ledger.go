package core

import (
	"repro/internal/cpu"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ledger is the per-run request book every run context embeds: the
// testbed, the optional telemetry recorder and invariant checker, the
// latency histogram and throughput meter, and the send/completion
// counters they are reconciled against at end of run (Runner.finish).
type ledger struct {
	tb *Testbed
	// rec is the run's telemetry recorder; nil when telemetry is off.
	rec *obs.Recorder
	// chk is the run's invariant checker; nil when checks are off.
	chk *invariant.Checker
	// pool is the run's serving pool; its shed count is exported as
	// pool.shed. Nil for runs that steer between pools themselves.
	pool *cpu.Pool
	// spanCheck relaxes the end-of-run span-tree check (failover allows
	// straggler children under abandoned requests).
	spanCheck invariant.SpanCheckOpts

	hist  *stats.Histogram
	meter *stats.Meter

	sent, done int
	// warmupN is the completion that opens the meter; the ones before it
	// are excluded from statistics. -1 means the meter opened at t=0.
	warmupN int
	// limit is a closed run's request count: the send that reaches it
	// stamps lastSend. Rate-series runs stamp lastSend themselves.
	limit int
	// lastSend closes the measurement window: counting completions that
	// straggle in during the post-send drain would understate overload
	// (the drain stretches the window) and hide saturation.
	lastSend sim.Time
}

// newLedger opens one run's books: recorder and checker as the runner
// is configured (keyed and labeled per family), and an empty histogram.
func (r *Runner) newLedger(tb *Testbed, key, label string) ledger {
	return ledger{tb: tb, rec: r.newRecorder(key, label), chk: r.newChecker(label),
		hist: stats.NewHistogram()}
}

// noteSent counts a request issue; at a closed run's final request it
// arranges the meter to close, truncating the window at the end of
// offered load.
func (l *ledger) noteSent() {
	l.sent++
	if l.sent == l.limit {
		l.lastSend = l.tb.Eng.Now()
	}
}

// record tallies one completed operation.
func (l *ledger) record(rtt sim.Duration, bytes int) {
	l.done++
	if l.done == l.warmupN {
		l.meter = stats.NewMeter(l.tb.Eng.Now())
		return
	}
	if l.done < l.warmupN || l.meter == nil {
		return
	}
	l.hist.Record(rtt)
	// Completions that straggle in after the offered load ended are
	// drain artifacts: they belong in the latency distribution but not
	// in the throughput window.
	if l.lastSend > 0 && l.tb.Eng.Now() > l.lastSend {
		return
	}
	l.meter.Mark(l.tb.Eng.Now(), bytes)
}

// closeMeter closes the throughput window at the end of offered load
// (at drain when no send stamped it) and returns the meter, nil when no
// completion ever opened it.
func (l *ledger) closeMeter() *stats.Meter {
	if l.meter == nil {
		return nil
	}
	closeAt := l.tb.Eng.Now()
	if l.lastSend > 0 && l.lastSend < closeAt {
		closeAt = l.lastSend
	}
	l.meter.Close(closeAt)
	return l.meter
}

// measurement assembles the standard operating-point result from the
// books and the testbed's counters. engineBound selects the staging
// pool (rather than the serving SNIC pool) as the SNIC utilization.
func (l *ledger) measurement(fn, variant string, plat Platform, offered float64, engineBound bool) Measurement {
	tb := l.tb
	m := Measurement{
		Function:    fn,
		Variant:     variant,
		Platform:    plat,
		OfferedGbps: offered,
		Latency:     l.hist.Summarize(),
		HostUtil:    tb.HostPool.Utilization(),
		EngineUtil:  tb.engineUtil,
	}
	if engineBound {
		m.SNICUtil = tb.StagingPool.Utilization()
	} else {
		m.SNICUtil = tb.SNICPool.Utilization()
	}
	if meter := l.closeMeter(); meter != nil {
		m.Ops = meter.Ops()
		m.TputOps = meter.OpsPerSec()
		m.TputGbps = meter.Gbps()
	}
	if offered > 0 {
		// Sustainability signal: achieved data rate over offered. In an
		// overloaded open-loop run the drain tail stretches the meter
		// window, so achieved ≈ service capacity < offered.
		m.DeliveredFrac = m.TputGbps / offered
	} else {
		m.DeliveredFrac = 1
	}
	// Average power from the calibrated model over run-average
	// utilizations (the signals are cumulative).
	m.ServerPowerW = float64(tb.Power.Server.Power())
	m.SNICPowerW = float64(tb.Power.SNIC.Power())
	if m.ServerPowerW > 0 {
		m.EffOpsPerJoule = m.TputOps / m.ServerPowerW
		m.EffBitsPerJoule = m.TputGbps * 1e9 / m.ServerPowerW
	}
	return m
}

// inject records a request entering the run's conservation ledger.
func (l *ledger) inject(seq uint64, bytes int) { l.chk.Inject(seq, bytes, l.tb.Eng.Now()) }

// complete records a request's successful completion.
func (l *ledger) complete(seq uint64, bytes int) { l.chk.Complete(seq, bytes, l.tb.Eng.Now()) }

// drop records a request shed at a full queue.
func (l *ledger) drop(seq uint64, bytes int) { l.chk.Drop(seq, bytes, l.tb.Eng.Now()) }

// openRequest opens a request root span at the current virtual time.
// Returns 0 (untraced) when telemetry is off.
//
//snicvet:hotpath
func (l *ledger) openRequest() obs.SpanID {
	if l.rec == nil {
		return 0
	}
	return l.rec.Open(obs.TrackRequests, spanRequest, l.tb.Eng.Now())
}

// stage records one stage child span of a request. root==0 (telemetry
// off, or an untraced packet) makes this a no-op.
//
//snicvet:hotpath
func (l *ledger) stage(root obs.SpanID, name string, start, end sim.Time) {
	if root == 0 {
		return
	}
	l.rec.Span(obs.TrackRequests, name, root, start, end)
}

// closeRequest ends a request root span at the current virtual time.
//
//snicvet:hotpath
func (l *ledger) closeRequest(root obs.SpanID) {
	if root == 0 {
		return
	}
	l.rec.Close(root, l.tb.Eng.Now())
}

// finish closes one run's books: the checker verifies its ledger
// against the driver's counters, the conservation equations and the
// span tree (any violation panics with the typed *invariant.Violation);
// the simulation counts toward Sims and the profiler; and the recorder
// gets the standard end-of-run counters, then the family's own (counters
// may be nil), and goes to the collector.
func (r *Runner) finish(l *ledger, counters func(rec *obs.Recorder)) {
	r.sims.Add(1)
	if l.chk != nil {
		now := l.tb.Eng.Now()
		l.chk.VerifyCounts(uint64(l.sent), uint64(l.done), now)
		if err := l.chk.Finish(now); err != nil {
			panic(err)
		}
		if err := invariant.CheckSpans(l.rec, l.spanCheck); err != nil {
			panic(err)
		}
	}
	r.Prof.NoteEngine(l.tb.Eng)
	if l.rec == nil {
		return
	}
	l.rec.SetCount("requests.sent", float64(l.sent))
	l.rec.SetCount("requests.completed", float64(l.done))
	if l.pool != nil {
		l.rec.SetCount("pool.shed", float64(l.pool.Dropped()))
		l.rec.SetCount("wire.lost", float64(l.tb.Wire.Lost()))
	}
	if counters != nil {
		counters(l.rec)
	}
	r.Telemetry.Attach(l.rec)
}

// driveRates feeds an open-loop request stream that follows a rate
// series: interval i offers rates[i] Gb/s for one interval of virtual
// time, Poisson-spaced by arr; an idle interval just waits out its
// span. send issues one request and returns its size in bytes (the
// gap's numerator). opened, when set, runs as each interval opens;
// ended, when set, runs when the series is exhausted. The caller runs
// the engine.
func driveRates(eng *sim.Engine, arr *trace.Arrivals, rates []float64, interval sim.Duration,
	opened func(), send func() int, ended func()) {
	var runInterval func(i int)
	runInterval = func(i int) {
		if i >= len(rates) {
			if ended != nil {
				ended()
			}
			return
		}
		if opened != nil {
			opened()
		}
		rate := rates[i]
		end := eng.Now().Add(interval)
		var submit func()
		submit = func() {
			if eng.Now() >= end {
				runInterval(i + 1)
				return
			}
			if rate > 0 {
				eng.After(arr.Gap(send(), rate*1e9), submit)
			} else {
				eng.At(end, submit)
			}
		}
		submit()
	}
	eng.At(0, func() { runInterval(0) })
}
