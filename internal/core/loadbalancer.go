package core

import (
	"fmt"

	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// LoadBalancer implements Strategy 3 of §5.3: split ingress packets
// between the SNIC accelerator and the host CPU based on monitored
// accelerator pressure, so that low-rate periods enjoy the SNIC's energy
// efficiency while bursts spill to the host before the SLO breaks.
//
// The paper's preliminary finding is also modelled: a *software* balancer
// on the SNIC CPU "consumes most of the SNIC CPU cycles simply to monitor
// packets at high rates and it cannot redirect packets fast enough".
// With HWAssist=false every packet pays a monitoring cost on the SNIC
// cores and redirection reacts at a coarse interval; with HWAssist=true
// (the paper's proposed future mechanism) monitoring is free and
// redirection is per-packet.
type LoadBalancer struct {
	// SpillQueueThreshold is the accelerator backlog (staged + queued
	// tasks) above which packets divert to the host.
	SpillQueueThreshold int
	// MonitorCycles is the per-packet SNIC CPU cost of the software
	// monitor (HWAssist=false only).
	MonitorCycles float64
	// HWAssist marks the hypothetical hardware balancer.
	HWAssist bool
	// ReactInterval is how often the software balancer refreshes its
	// view of accelerator pressure; the hardware one sees it instantly.
	ReactInterval sim.Duration
}

// DefaultLoadBalancer returns the software balancer the paper prototyped.
func DefaultLoadBalancer() LoadBalancer {
	return LoadBalancer{
		SpillQueueThreshold: 96,
		MonitorCycles:       420,
		HWAssist:            false,
		ReactInterval:       100 * sim.Microsecond,
	}
}

// HWLoadBalancer returns the proposed hardware-assisted balancer.
func HWLoadBalancer() LoadBalancer {
	return LoadBalancer{SpillQueueThreshold: 96, HWAssist: true}
}

// BalancedResult reports a balanced trace replay.
type BalancedResult struct {
	Balancer    LoadBalancer
	AvgTputGbps float64
	P99         sim.Duration
	AvgPowerW   float64
	// HostShare is the fraction of packets served by the host CPU.
	HostShare float64
	// SNICCPUUtil shows the monitoring burden on the SNIC cores.
	SNICCPUUtil float64
	Dropped     uint64
}

func (b BalancedResult) String() string {
	return fmt.Sprintf("balanced(hw=%v): %.2f Gb/s, p99 %v, %.1f W, host share %.1f%%, snic util %.2f",
		b.Balancer.HWAssist, b.AvgTputGbps, b.P99, b.AvgPowerW, b.HostShare*100, b.SNICCPUUtil)
}

// Validate rejects malformed balancer parameters with a typed
// *ParamError (the fault.Plan.Validate treatment): negative thresholds,
// monitor costs or reaction intervals would silently disable the spill
// logic or wedge the refresh loop.
func (lb LoadBalancer) Validate() error {
	fail := func(param, reason string) error {
		return &ParamError{Op: "load balancer", Param: param, Reason: reason}
	}
	if lb.SpillQueueThreshold < 0 {
		return fail("SpillQueueThreshold", "must not be negative")
	}
	if lb.MonitorCycles < 0 {
		return fail("MonitorCycles", "must not be negative")
	}
	if lb.ReactInterval < 0 {
		return fail("ReactInterval", "must not be negative")
	}
	if !lb.HWAssist && lb.ReactInterval == 0 {
		return fail("ReactInterval", "must be positive for the software balancer")
	}
	return nil
}

// RunBalanced replays a rate trace of MTU REM packets through the
// balancer: packets steer to the SNIC accelerator until its backlog
// crosses the threshold, then spill to the host CPU pool.
//
// RunBalanced is a thin adapter over Execute (the unified Workload
// API); invalid inputs panic with the typed validation error.
func (r *Runner) RunBalanced(lb LoadBalancer, tr *trace.HyperscalerTrace, hostCores int, seed uint64) BalancedResult {
	res, err := r.Execute(Workload{Kind: WorkloadBalanced, Balancer: &lb,
		Trace: tr, HostCores: hostCores, Seed: seed})
	if err != nil {
		panic(err)
	}
	return *res.Balanced
}

// runBalancedImpl is the balanced-replay implementation behind Execute
// and RunBalanced.
func (r *Runner) runBalancedImpl(lb LoadBalancer, tr *trace.HyperscalerTrace, hostCores int, seed uint64) BalancedResult {
	cfg := remMTU(trace.RuleSetExecutable)
	seed = r.runSeed(seed)
	tbc := r.TBConfig
	tbc.Seed ^= seed
	if hostCores > 0 {
		tbc.HostCores = hostCores
	}
	tb := NewTestbed(tbc)

	eng := tb.Eng
	jit := sim.NewRNG(seed ^ 0x1234)
	arrivals := trace.NewPoissonArrivals(seed ^ 0xabcdef)
	// No telemetry or checker rides a balanced replay; the ledger keeps
	// its books for Sims and the profiler. Every completion counts, late
	// ones included.
	l := &ledger{tb: tb, hist: stats.NewHistogram(), meter: stats.NewMeter(0)}

	hostPool := tb.HostPool
	hostPool.JitterSigma = 0
	hostPool.SetQueueCapacity(4096)
	staging := tb.StagingPool
	staging.JitterSigma = 0
	staging.SetQueueCapacity(4096)

	// Both sides are powered and ready: this is exactly the paper's
	// point that reserved host cores cannot sleep (Key Observation 3).
	tb.ActivateSNICPools(0, 1)
	tb.SetPolling(SNICCPU, true)
	tb.SetPolling(HostCPU, true)

	hostProf := netstack.ByKind(netstack.KindDPDK)
	hostSpec := tb.HostSpec
	snicSpec := tb.SNICSpec

	var hostServed, snicServed uint64

	// backlogView is what the balancer believes the accelerator backlog
	// is; the software balancer refreshes it every ReactInterval.
	backlog := func() int { return staging.QueueLen() + tb.REM.QueueLen()*16 }
	backlogView := 0
	if !lb.HWAssist {
		var refresh func()
		refresh = func() {
			backlogView = backlog()
			eng.After(lb.ReactInterval, refresh)
		}
		eng.At(0, refresh)
	}

	record := func(sentAt sim.Time) {
		l.done++
		l.hist.Record(eng.Now().Sub(sentAt))
		l.meter.Mark(eng.Now(), nicMTU)
	}

	serveHost := func(pkt *nic.Packet) {
		hostServed++
		cycles := hostProf.RxCycles(hostSpec.Arch, pkt.Size) +
			hostProf.TxCycles(hostSpec.Arch, 32) +
			cfg.HostBaseCycles + cfg.HostPerByteCycles*float64(pkt.Size)
		svc := jit.LogNormalDur(sim.Cycles(cycles/hostSpec.IPC, hostSpec.BaseHz), cfg.HostSigma)
		hostPool.ExecDuration(svc, func(_, _ sim.Time) { record(pkt.SentAt) })
	}
	serveAccel := func(pkt *nic.Packet) {
		snicServed++
		stage := hostProf.RxCycles(snicSpec.Arch, pkt.Size) + 340 + 0.02*float64(pkt.Size)
		if !lb.HWAssist {
			stage += lb.MonitorCycles
		}
		svc := jit.LogNormalDur(sim.Cycles(stage/snicSpec.IPC, snicSpec.BaseHz), 0.15)
		staging.ExecDuration(svc, func(_, _ sim.Time) {
			if err := tb.REM.Submit(pkt.Size, func(_, _ sim.Time) { record(pkt.SentAt) }); err != nil {
				// A crashed engine rejects the task; spill it to the host
				// instead of losing the packet.
				snicServed--
				serveHost(pkt)
			}
		})
	}

	tb.Sw.Program(func(p *nic.Packet) nic.Destination {
		bl := backlogView
		if lb.HWAssist {
			bl = backlog()
		}
		if bl > lb.SpillQueueThreshold {
			return nic.ToHostCPU
		}
		return nic.ToAccelerator
	})
	tb.Sw.Connect(nic.ToHostCPU, serveHost)
	tb.Sw.Connect(nic.ToAccelerator, serveAccel)

	// Host-share of traffic for the power model's io-traffic term is
	// finalized after the run.
	prog := r.newProgress(len(tr.RatesGbps))
	balLabel := fmt.Sprintf("balanced hw=%v", lb.HWAssist)
	driveRates(eng, arrivals, tr.RatesGbps, tr.Interval, func() { prog.step(balLabel) }, func() int {
		l.sent++
		tb.Wire.SendToServer(&nic.Packet{Size: nicMTU, SentAt: eng.Now()}, tb.Sw.Ingress)
		return nicMTU
	}, func() { l.lastSend = eng.Now() })
	// The software monitor reschedules itself indefinitely, so run to a
	// horizon (trace span plus a generous drain) rather than to drain.
	horizon := sim.Time(tr.Duration()) + sim.Time(200*sim.Millisecond)
	eng.RunUntil(horizon)

	r.finish(l, nil)

	res := BalancedResult{Balancer: lb, P99: l.hist.P99(), Dropped: hostPool.Dropped() + staging.Dropped()}
	if l.sent > 0 {
		res.HostShare = float64(hostServed) / float64(l.sent)
	}
	tb.SetHostTrafficShare(res.HostShare)
	tb.SetEngineUtil(tb.REM.Utilization())
	l.meter.Close(l.lastSend)
	res.AvgTputGbps = l.meter.Gbps()
	res.AvgPowerW = float64(tb.Power.Server.Power())
	res.SNICCPUUtil = staging.Utilization()
	return res
}

// BurstyTrace builds a short trace that mostly idles at a low rate with
// bursts exceeding the accelerator's ~50 Gb/s capability — the workload
// where a balancer matters.
func BurstyTrace(baseGbps, burstGbps float64, points int, burstEvery int, interval sim.Duration) *trace.HyperscalerTrace {
	rates := make([]float64, points)
	for i := range rates {
		if burstEvery > 0 && i%burstEvery == burstEvery-1 {
			rates[i] = burstGbps
		} else {
			rates[i] = baseGbps
		}
	}
	return &trace.HyperscalerTrace{Interval: interval, RatesGbps: rates}
}
