package core

import (
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Checked-execution wiring. A Runner with Checks set gives every
// simulation a per-run invariant.Checker validating the simulator's
// physical laws online: request and byte conservation through the
// drivers' ledgers, queue sanity and clock monotonicity through the same
// sim observer hooks telemetry uses, and span causality at end of run.
// With Checks off every hook below degenerates to the telemetry nil
// check, so the unchecked hot path is unchanged.

// newChecker returns a fail-fast checker for one run, or nil when
// checked mode is off.
func (r *Runner) newChecker(label string) *invariant.Checker {
	if !r.Checks {
		return nil
	}
	return invariant.New(label)
}

// combineStations merges the optional recorder and checker into one
// station observer. Returning the concrete values (never a nil wrapped
// in an interface) keeps the "observer == nil" fast path honest.
func combineStations(rec *obs.Recorder, chk *invariant.Checker) sim.StationObserver {
	switch {
	case rec != nil && chk != nil:
		return invariant.TeeStations(rec, chk)
	case rec != nil:
		return rec
	case chk != nil:
		return chk
	}
	return nil
}

// combineLinks is combineStations for link observers.
func combineLinks(rec *obs.Recorder, chk *invariant.Checker) sim.LinkObserver {
	switch {
	case rec != nil && chk != nil:
		return invariant.TeeLinks(rec, chk)
	case rec != nil:
		return rec
	case chk != nil:
		return chk
	}
	return nil
}

// combineBatches is combineStations for batch observers.
func combineBatches(rec *obs.Recorder, chk *invariant.Checker) sim.BatchObserver {
	switch {
	case rec != nil && chk != nil:
		return invariant.TeeBatches(rec, chk)
	case rec != nil:
		return rec
	case chk != nil:
		return chk
	}
	return nil
}

// registerPools hands the checker the ground truth it range-checks the
// pools against: core counts and queue capacities as configured for this
// run (capacities are set before instrumentation in every run path).
func registerPools(tb *Testbed, chk *invariant.Checker) {
	if chk == nil {
		return
	}
	chk.RegisterStation("pool/host", tb.HostPool.Cores(), tb.HostPool.QueueCapacity(),
		func() (int, int) { return tb.HostPool.Busy(), tb.HostPool.QueueLen() })
	chk.RegisterStation("pool/snic", tb.SNICPool.Cores(), tb.SNICPool.QueueCapacity(),
		func() (int, int) { return tb.SNICPool.Busy(), tb.SNICPool.QueueLen() })
	chk.RegisterStation("pool/staging", tb.StagingPool.Cores(), tb.StagingPool.QueueCapacity(),
		func() (int, int) { return tb.StagingPool.Busy(), tb.StagingPool.QueueLen() })
}
