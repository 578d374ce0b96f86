package core

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/cpu"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Net-serve execution. One kernel serves every wire-to-server request
// path: point measurements of net-served configs (Runner.Run in
// ModeNetServe), Table 4 trace replays, fleet-server replays and
// multi-phase pipelines all execute a PipelineSpec on pipectx — configs
// through their single-phase PipelineFromConfig conversion. The event
// structure and RNG-draw order are fixed: submit loop, inbound fixed
// delay, service draw at sink entry, TX delay drawn at service
// completion; additional phases chain where a single phase would have
// sent the response. An arrivalSource feeds the run and carries the
// setup facts in which rate-series replays differ from closed runs.

// PhaseStat is one phase's request accounting in a pipeline run.
type PhaseStat struct {
	Name     string
	Resource PhaseResource
	// Served counts requests the phase completed on its own resource;
	// Spilled those the fallback policy redirected to a host core;
	// Dropped those shed at the phase's queue.
	Served, Spilled, Dropped uint64
}

// PipelineMeasurement is one pipeline operating point: the familiar
// measurement (throughput, latency, power, utilizations) plus per-phase
// request accounting.
type PipelineMeasurement struct {
	Pipeline string
	Policy   string
	// Point carries the standard metrics; Function is the pipeline
	// name, Variant the policy key and Platform the first phase's
	// platform mapping.
	Point Measurement
	// Spilled and Dropped total the per-phase columns.
	Spilled, Dropped uint64
	Phases           []PhaseStat
}

func (m PipelineMeasurement) String() string {
	return fmt.Sprintf("pipeline %s [%s]: %.3f Gb/s, p99 %v, spilled %d, dropped %d",
		m.Pipeline, m.Policy, m.Point.TputGbps, m.Point.Latency.P99, m.Spilled, m.Dropped)
}

// arrivalSource feeds one net-serve run: a closed request count at a
// constant offered rate (point and pipeline runs), or a rate series
// replayed interval by interval (Table 4 rows and fleet servers).
// Whether it is a series decides the setup facts in which replays
// differ from closed runs (see Runner.serve): the seed fold, always-on
// polling, fixed request sizes, and the warmup/meter rule.
type arrivalSource struct {
	// opts is a closed run's operating point; a series reads only Seed.
	opts RunOpts
	// rates, when non-nil, is the offered load in Gb/s per interval.
	rates    []float64
	interval sim.Duration
	// wholeTrace measures every completion of a series: the meter opens
	// at t=0 and nothing is discarded as warmup (fleet attainment must
	// see the whole trace). Otherwise the first completion opens it.
	wholeTrace bool
}

func (s *arrivalSource) series() bool { return s.rates != nil }

// pipectx is the per-run wiring of one net-serve simulation.
type pipectx struct {
	ledger
	ps  *PipelineSpec
	pol FallbackPolicy
	src arrivalSource

	prof     netstack.Profile
	ep       *netstack.Endpoint
	arrivals *trace.Arrivals
	sizes    trace.SizeDist
	jit      *sim.RNG

	tally []PhaseStat
	// phaseSpans names each phase's child span, built once per run; nil
	// for runs that export only the request stages (point and replay
	// runs), which also skip the per-phase counters.
	phaseSpans []string
}

// RunPipeline measures one pipeline at one operating point, memoized
// under a key covering the full spec, policy, testbed and options.
func (r *Runner) RunPipeline(ps *PipelineSpec, opts RunOpts) PipelineMeasurement {
	if err := ps.Validate(); err != nil {
		panic(err)
	}
	key := pipelineKey(ps, r.TBConfig, opts)
	if m, ok := r.cache.lookupPipeline(key); ok {
		return m
	}
	m := r.serve(ps, arrivalSource{opts: opts}, key, pipelineLabel(ps, opts), true).pipelineMeasurement()
	r.cache.storePipeline(key, m)
	return m
}

// pipelineLabel is the run description used in telemetry exports and
// checker labels (no commas — CSV-safe).
func pipelineLabel(ps *PipelineSpec, opts RunOpts) string {
	return fmt.Sprintf("pipeline %s [%s] | off %g Gb/s | req %d | seed %d",
		ps.Name, ps.policy().Key(), opts.OfferedGbps, opts.Requests, opts.Seed)
}

// serve executes ps fed by src on a fresh testbed and returns the
// finished run for its family to project. key and label identify the
// run in telemetry and checker reports; phased adds the per-phase spans
// and counters that pipeline runs export.
func (r *Runner) serve(ps *PipelineSpec, src arrivalSource, key, label string, phased bool) *pipectx {
	series := src.series()
	seed := r.runSeed(src.opts.Seed)
	tbc := r.TBConfig
	// Each family keeps the testbed-seed fold its published numbers
	// were produced with.
	if series {
		tbc.Seed ^= seed
	} else {
		tbc.Seed ^= seed * 0x9e3779b97f4a7c15
	}
	if ps.HostCores > 0 {
		tbc.HostCores = ps.HostCores
	}
	if ps.SNICCores > 0 {
		tbc.SNICCores = ps.SNICCores
	}
	tb := NewTestbed(tbc)

	px := &pipectx{
		ps: ps, pol: ps.policy(), src: src,
		prof:     netstack.ByKind(ps.Stack),
		arrivals: trace.NewPoissonArrivals(seed ^ 0xabcdef),
		jit:      sim.NewRNG(seed ^ 0x1234),
		tally:    make([]PhaseStat, len(ps.Phases)),
	}
	px.ledger = r.newLedger(tb, key, label)
	// Closed runs draw the spec's size mix and discard a warmup
	// fraction; series replay fixed-size requests (trace rates are data
	// rates) and meter per the source.
	switch {
	case !series:
		px.limit = src.opts.Requests
		px.warmupN = int(float64(src.opts.Requests) * src.opts.WarmupFrac)
	case src.wholeTrace:
		px.meter = stats.NewMeter(0)
		px.warmupN = -1
	default:
		px.warmupN = 1
	}
	if ps.Mixed && !series {
		px.sizes = trace.CTUMixed()
	} else {
		px.sizes = trace.Fixed(ps.ReqSize)
	}
	for i := range ps.Phases {
		px.tally[i] = PhaseStat{Name: ps.Phases[i].Name, Resource: ps.Phases[i].Resource}
	}
	if phased {
		px.phaseSpans = make([]string, len(ps.Phases))
		for i := range ps.Phases {
			px.phaseSpans[i] = "phase/" + ps.Phases[i].Name
		}
	}
	first := &ps.Phases[0]
	px.pool = tb.PoolFor(first.platform())
	// Queue capacities: every pool a phase binds gets the runner default
	// (or the phase's explicit cap); the host pool is always bounded so
	// spilled work sheds instead of queueing without limit. The runner
	// applies service jitter itself, so pool-level jitter is off on
	// every pool a phase can touch.
	for i := range ps.Phases {
		ph := &ps.Phases[i]
		qcap := ph.QueueCap
		if qcap <= 0 {
			qcap = 4096
		}
		pool := px.poolFor(ph)
		pool.JitterSigma = 0
		pool.SetQueueCapacity(qcap)
	}
	if ps.uses(ResEngine) {
		tb.HostPool.JitterSigma = 0
		if tb.HostPool.QueueCapacity() <= 0 {
			tb.HostPool.SetQueueCapacity(4096)
		}
	}
	px.ep = netstack.NewEndpoint(tb.Eng, px.prof, px.pool, seed^0x77)
	instrumentTestbed(tb, px.rec, px.chk)

	// Power bookkeeping: pools in play, poll-mode pinning (serving cores
	// always poll under a replay), and whether traffic crosses into host
	// memory.
	hostServes := ps.uses(ResHostCore)
	snicServes := ps.uses(ResSNICCore)
	engineUsed := ps.uses(ResEngine)
	poll := series || ps.Stack == netstack.KindDPDK
	serve, staging := 0.0, 0.0
	if snicServes {
		serve = 1
	}
	if engineUsed {
		staging = 1
	}
	tb.ActivateSNICPools(serve, staging)
	if hostServes {
		tb.SetPolling(HostCPU, poll)
	}
	if snicServes {
		tb.SetPolling(SNICCPU, poll)
	}
	if engineUsed {
		tb.SetPolling(SNICCPU, true) // staging cores poll DPDK / feed engines
	}
	if hostServes {
		tb.SetHostTrafficShare(1)
	} else {
		tb.SetHostTrafficShare(0)
	}

	px.run()
	r.finish(&px.ledger, px.phaseCounters)
	return px
}

// poolFor maps a phase to the pool that executes it (engine phases
// occupy staging cores for submission).
func (px *pipectx) poolFor(ph *PhaseSpec) *cpu.Pool {
	return px.tb.PoolFor(ph.platform())
}

// run steers every request to the first phase's resource and drives
// the source: a closed submit loop at the offered rate, or the rate
// series interval by interval.
func (px *pipectx) run() {
	eng := px.tb.Eng
	dest := nic.ToHostCPU
	switch px.ps.Phases[0].Resource {
	case ResSNICCore:
		dest = nic.ToSNICCPU
	case ResEngine:
		dest = nic.ToAccelerator
	}
	px.tb.Sw.Program(func(*nic.Packet) nic.Destination { return dest })
	px.tb.Sw.Connect(nic.ToHostCPU, px.sink)
	px.tb.Sw.Connect(nic.ToSNICCPU, px.sink)
	px.tb.Sw.Connect(nic.ToAccelerator, px.sink)

	if px.src.series() {
		driveRates(eng, px.arrivals, px.src.rates, px.src.interval, nil, px.send,
			func() { px.lastSend = eng.Now() })
	} else {
		var submit func()
		submit = func() {
			if px.sent >= px.src.opts.Requests {
				return
			}
			eng.After(px.arrivals.Gap(px.send(), px.src.opts.OfferedGbps*1e9), submit)
		}
		eng.At(0, submit)
	}
	eng.Run()
	px.finishEngineUtil()
}

// send issues one request onto the wire and returns its size.
func (px *pipectx) send() int {
	px.noteSent()
	size := px.sizes.Next(px.jit)
	pkt := &nic.Packet{Seq: uint64(px.sent), Size: size, SentAt: px.tb.Eng.Now(),
		Span: uint32(px.openRequest())}
	px.inject(pkt.Seq, size)
	px.tb.Wire.SendToServer(pkt, px.tb.Sw.Ingress)
	return size
}

// sink receives a request off the wire and starts phase 0. The phase
// walk carries the request packet itself — sequence number, wire size,
// send time and span — so each continuation closure captures one
// pointer instead of the unpacked fields.
func (px *pipectx) sink(pkt *nic.Packet) {
	px.stage(obs.SpanID(pkt.Span), spanIngress, pkt.SentAt, px.tb.Eng.Now())
	px.runPhase(0, pkt.Size, pkt)
}

// runPhase dispatches phase i. size is the phase's input payload after
// upstream transforms; pkt.Size stays the injected wire payload (ledger
// and meter accounting).
func (px *pipectx) runPhase(i, size int, pkt *nic.Packet) {
	if px.ps.Phases[i].isCPU() {
		px.cpuPhase(i, size, pkt)
		return
	}
	px.enginePhase(i, size, pkt)
}

// next advances past phase i, or finishes the request.
func (px *pipectx) next(i, size int, pkt *nic.Packet, fromEngine bool) {
	if i+1 < len(px.ps.Phases) {
		px.runPhase(i+1, size, pkt)
		return
	}
	px.finishReturn(pkt, fromEngine)
}

// cpuPhase serves phase i on its core pool, run to completion (stack RX
// + application + stack TX on one core). Phase 0 rides the inbound
// fixed stack delay first; its service time is drawn at sink entry.
func (px *pipectx) cpuPhase(i, size int, pkt *nic.Packet) {
	eng := px.tb.Eng
	ph := &px.ps.Phases[i]
	pool := px.poolFor(ph)
	svc := px.phaseSvc(i, ph, pool, size, false)
	if i == 0 {
		// Phase 0's input is the wire payload and its pool is
		// recomputable, which keeps this per-request closure small.
		inFixed := px.ep.FixedDelay() + px.ps.FixedExtra
		rxDone := eng.Now()
		eng.After(inFixed, func() {
			enq := px.tb.Eng.Now()
			px.stage(obs.SpanID(pkt.Span), spanStackRx, rxDone, enq)
			px.execCPU(0, px.poolFor(&px.ps.Phases[0]), svc, pkt.Size, pkt, enq, false)
		})
		return
	}
	px.execCPU(i, pool, svc, size, pkt, eng.Now(), false)
}

// execCPU enqueues a CPU phase's service and chains the next phase from
// its completion. spilled marks engine work redirected here by the
// fallback policy.
func (px *pipectx) execCPU(i int, pool *cpu.Pool, svc sim.Duration, size int, pkt *nic.Packet, enq sim.Time, spilled bool) {
	name := px.ps.Phases[i].Name
	px.chk.PhaseEnter(name, pkt.Seq, px.tb.Eng.Now())
	ok := pool.ExecDuration(svc, func(s, e sim.Time) {
		root := obs.SpanID(pkt.Span)
		if root != 0 && s > enq {
			px.stage(root, spanQueue, enq, s)
		}
		px.stage(root, spanService, s, e)
		px.phaseStage(root, i, s, e)
		ph := &px.ps.Phases[i]
		px.chk.PhaseExit(ph.Name, pkt.Seq, e)
		if spilled {
			px.tally[i].Spilled++
		} else {
			px.tally[i].Served++
		}
		px.next(i, ph.outSize(size), pkt, false)
	})
	if !ok {
		px.tally[i].Dropped++
		px.chk.PhaseDrop(name, pkt.Seq, px.tb.Eng.Now())
		px.drop(pkt.Seq, pkt.Size)
	}
}

// enginePhase routes phase i through the staging cores into its engine
// (the DOCA path of §2.2), unless the fallback policy spills it to a
// host core first. The staging cost charged up front includes the
// result pickup work (~100 cycles), so completions ride a small fixed
// delay rather than re-entering the staging queue — a dropped RX must
// never be able to orphan a finished engine task.
func (px *pipectx) enginePhase(i, size int, pkt *nic.Packet) {
	eng := px.tb.Eng
	ph := &px.ps.Phases[i]
	staging := px.tb.StagingPool
	backlog := staging.QueueLen() + px.tb.engineQueueLen(ph.Engine)*16
	qcap := ph.QueueCap
	if qcap <= 0 {
		qcap = 4096
	}
	if px.pol.Spill(ph, backlog, qcap) {
		// Host software path: the phase's spill cost model on a host
		// core, then the pipeline continues as if the engine had run.
		pool := px.tb.HostPool
		svc := px.phaseSvc(i, ph, pool, size, true)
		px.execCPU(i, pool, svc, size, pkt, eng.Now(), true)
		return
	}
	arrive := eng.Now()
	spec := px.tb.SNICSpec
	stageCycles := 0.0
	if i == 0 {
		stageCycles = px.prof.RxCycles(spec.Arch, size)
	}
	stageCycles += accel.StagingCyclesPerTask
	stageCycles += accel.StagingCyclesPerByte * float64(size)
	stageCycles += 100
	stageSvc := px.jit.LogNormalDur(sim.Cycles(stageCycles/spec.IPC, spec.BaseHz), 0.15)
	px.chk.PhaseEnter(ph.Name, pkt.Seq, eng.Now())
	ok := staging.ExecDuration(stageSvc, func(s, e sim.Time) {
		root := obs.SpanID(pkt.Span)
		if root != 0 && s > arrive {
			px.stage(root, spanQueue, arrive, s)
		}
		px.stage(root, spanStaging, s, e)
		ph := &px.ps.Phases[i]
		px.tb.submitEngine(ph.Engine, ph.PKAAlgo, size, func(es, ee sim.Time) {
			px.stage(root, spanEngine, es, ee)
			px.phaseStage(root, i, s, ee)
			px.chk.PhaseExit(ph.Name, pkt.Seq, ee)
			px.tally[i].Served++
			px.next(i, ph.outSize(size), pkt, true)
		})
	})
	if !ok {
		px.tally[i].Dropped++
		px.chk.PhaseDrop(ph.Name, pkt.Seq, eng.Now())
		px.drop(pkt.Seq, pkt.Size)
	}
}

// finishReturn sends the response: a small fixed engine-pickup delay
// when the last phase was an engine, the TX-side stack delay otherwise.
func (px *pipectx) finishReturn(pkt *nic.Packet, fromEngine bool) {
	var d sim.Duration
	if fromEngine {
		d = 200 * sim.Nanosecond
	} else {
		d = px.ep.FixedDelay()
	}
	px.tb.Eng.After(d, func() { px.respond(pkt) })
}

// respond carries the response back over the wire and completes the
// request.
func (px *pipectx) respond(pkt *nic.Packet) {
	txAt := px.tb.Eng.Now()
	resp := &nic.Packet{Seq: pkt.Seq, Size: px.ps.RespSize, SentAt: pkt.SentAt}
	px.tb.Wire.SendToClient(resp, func(*nic.Packet) {
		now := px.tb.Eng.Now()
		root := obs.SpanID(pkt.Span)
		px.stage(root, spanReturn, txAt, now)
		px.closeRequest(root)
		px.complete(pkt.Seq, pkt.Size)
		px.record(now.Sub(pkt.SentAt), pkt.Size)
	})
}

// phaseSvc composes stack + phase cycles into a jittered service time.
// The evaluation order is fixed — (base + perByte·size), then ×factor,
// then +extra, Rx and Tx cycles added first — because float operation
// order is part of the results' bit-reproducibility. Phase 0 carries
// the RX stack cycles, the last CPU phase the TX cycles; spilled engine
// phases run their software model on the host.
func (px *pipectx) phaseSvc(i int, ph *PhaseSpec, pool *cpu.Pool, size int, spilled bool) sim.Duration {
	spec := pool.Spec
	base, perByte := ph.BaseCycles, ph.PerByteCycles
	factor := ph.CycleFactor
	if spilled {
		if ph.SpillBaseCycles > 0 || ph.SpillPerByteCycles > 0 {
			base, perByte = ph.SpillBaseCycles, ph.SpillPerByteCycles
		}
		factor = 1
	}
	if factor <= 0 {
		factor = 1
	}
	app := base + perByte*float64(size)
	app *= factor
	app += ph.ExtraCycles

	cycles := 0.0
	if i == 0 {
		cycles = px.prof.RxCycles(spec.Arch, size)
	}
	if i == len(px.ps.Phases)-1 {
		cycles += px.prof.TxCycles(spec.Arch, px.ps.RespSize)
	}
	cycles += app

	svc := sim.Cycles(cycles/spec.IPC, spec.BaseHz)
	plat := ph.platform()
	if spilled {
		plat = HostCPU
	}
	pen := px.tb.MemFor(plat).Penalty(ph.MemIntensity, ph.WorkingSet, px.tb.SpecFor(plat).L3Bytes)
	svc = sim.Duration(float64(svc) * pen)
	sigma := ph.Sigma
	if sigma <= 0 {
		sigma = 0.20
	}
	return px.jit.LogNormalDur(svc, sigma)
}

// finishEngineUtil snapshots the busiest bound engine into the power
// signal.
func (px *pipectx) finishEngineUtil() {
	var u float64
	seen := false
	for i := range px.ps.Phases {
		ph := &px.ps.Phases[i]
		if ph.Resource != ResEngine {
			continue
		}
		if eu := px.tb.engineUtilization(ph.Engine); !seen || eu > u {
			u = eu
			seen = true
		}
	}
	if seen {
		px.tb.SetEngineUtil(u)
	}
}

// phaseStage records phase i's child span when the run exports the
// phase layer.
func (px *pipectx) phaseStage(root obs.SpanID, i int, start, end sim.Time) {
	if px.phaseSpans != nil {
		px.stage(root, px.phaseSpans[i], start, end)
	}
}

// phaseCounters lands the per-phase accounting in the registry, so
// pipeline manifests show where the fallback policy routed work.
func (px *pipectx) phaseCounters(rec *obs.Recorder) {
	if px.phaseSpans == nil {
		return
	}
	for i := range px.tally {
		scope := rec.Metrics().Scope(px.phaseSpans[i])
		scope.Counter("served", "reqs").Set(float64(px.tally[i].Served))
		scope.Counter("spilled", "reqs").Set(float64(px.tally[i].Spilled))
		scope.Counter("dropped", "reqs").Set(float64(px.tally[i].Dropped))
	}
}

// point is the run's standard operating-point result under the given
// identity labels.
func (px *pipectx) point(fn, variant string) Measurement {
	return px.measurement(fn, variant, px.ps.Phases[0].platform(), px.src.opts.OfferedGbps, px.ps.uses(ResEngine))
}

// pipelineMeasurement is the pipeline family's projection: the point
// labeled by pipeline and policy, plus per-phase accounting.
func (px *pipectx) pipelineMeasurement() PipelineMeasurement {
	pm := PipelineMeasurement{
		Pipeline: px.ps.Name,
		Policy:   px.pol.Key(),
		Point:    px.point(px.ps.Name, px.pol.Key()),
		Phases:   px.tally,
	}
	for i := range px.tally {
		pm.Spilled += px.tally[i].Spilled
		pm.Dropped += px.tally[i].Dropped
	}
	return pm
}

// ---- saturation search ----

// SaturationPoint is one sampled operating point of the load walk.
type SaturationPoint struct {
	OfferedGbps float64
	M           PipelineMeasurement
}

// SaturationResult is one policy's load walk: the sampled curve, the
// knee (the highest offered load still sustained at a reasonable p99 —
// the run_until_saturation criterion), and the measurement there.
type SaturationResult struct {
	Pipeline string
	Policy   string
	Points   []SaturationPoint
	// KneeGbps is 0 when no sampled point sustained its load.
	KneeGbps float64
	Knee     PipelineMeasurement
}

// SaturationOpts shapes the load walk. The zero value walks 12 points
// from 20% to 220% of the pipeline's analytic capacity with
// probe-length runs.
type SaturationOpts struct {
	// Points is the number of sampled loads; 0 means 12.
	Points int
	// MinGbps/MaxGbps bound the walk; 0 derives both from the analytic
	// capacity estimate (0.2× and 2.2×, capped at 98% of line rate).
	MinGbps, MaxGbps float64
	// Requests per point; 0 means the capacity-probe default (6000).
	Requests int
	// Seed perturbs every point's streams.
	Seed uint64
}

// SaturationSearch walks offered load up to the SLO knee for one
// pipeline under one policy (run_until_saturation): points are sampled
// in parallel (byte-identical at any parallelism — each point is an
// independent memoized run), then scanned in load order against the
// light-load baseline's p99. The knee is the highest load with
// delivered ≥ 97% of offered and p99 within the spec's knee multiple
// of the first point's p99.
func (r *Runner) SaturationSearch(ps *PipelineSpec, so SaturationOpts) SaturationResult {
	if err := ps.Validate(); err != nil {
		panic(err)
	}
	n := so.Points
	if n <= 0 {
		n = 12
	}
	if n < 2 {
		n = 2
	}
	lo, hi := so.MinGbps, so.MaxGbps
	if lo <= 0 || hi <= 0 {
		est := r.estimatePipelineGbps(ps)
		if lo <= 0 {
			lo = est * 0.2
		}
		if hi <= 0 {
			hi = math.Min(est*2.2, r.TBConfig.LinkGbps()*0.98)
		}
	}
	if hi <= lo {
		hi = lo * 2
	}
	res := SaturationResult{Pipeline: ps.Name, Policy: ps.policy().Key(),
		Points: make([]SaturationPoint, n)}
	prog := r.newProgress(n)
	label := "saturation " + ps.Name + " [" + res.Policy + "]"
	r.forEachN(n, func(i int) {
		opts := probeOpts(so.Seed + uint64(1000+i))
		if so.Requests > 0 {
			opts.Requests = so.Requests
		}
		opts.OfferedGbps = lo + (hi-lo)*float64(i)/float64(n-1)
		res.Points[i] = SaturationPoint{OfferedGbps: opts.OfferedGbps, M: r.RunPipeline(ps, opts)}
		prog.step(label)
	})
	// Knee scan: the first point anchors the "reasonable p99" bound.
	p99Cap := sim.Duration(float64(res.Points[0].M.Point.Latency.P99) * ps.kneeMult())
	for i := range res.Points {
		p := &res.Points[i]
		if p.M.Point.DeliveredFrac >= 0.97 && p.M.Point.Latency.P99 <= p99Cap {
			res.KneeGbps = p.OfferedGbps
			res.Knee = p.M
		}
	}
	return res
}

// estimatePipelineGbps computes an analytic capacity seed: the minimum
// over phases of each phase's standalone capacity (pool sharing between
// phases is ignored — the walk's range only needs to bracket the knee).
func (r *Runner) estimatePipelineGbps(ps *PipelineSpec) float64 {
	tbc := r.TBConfig
	if ps.HostCores > 0 {
		tbc.HostCores = ps.HostCores
	}
	if ps.SNICCores > 0 {
		tbc.SNICCores = ps.SNICCores
	}
	tb := NewTestbed(tbc)
	meanReq := ps.ReqSize
	if ps.Mixed {
		meanReq = int(trace.CTUMixed().Mean())
	}
	link := r.TBConfig.LinkGbps()
	best := link * float64(meanReq) / float64(meanReq+nic.EthernetOverhead)
	prof := netstack.ByKind(ps.Stack)
	size := meanReq
	for i := range ps.Phases {
		ph := &ps.Phases[i]
		var gbps float64
		if ph.Resource == ResEngine {
			engineBits := tb.engineRateBits(ph.Engine, ph.PKAAlgo, 64<<10)
			spec := tb.SNICSpec
			stageCycles := accel.StagingCyclesPerTask + accel.StagingCyclesPerByte*float64(size) + 100
			if i == 0 {
				stageCycles += prof.RxCycles(spec.Arch, size)
			}
			stageTime := sim.Cycles(stageCycles/spec.IPC, spec.BaseHz)
			stageBits := float64(tb.StagingPool.Cores()) / stageTime.Seconds() * float64(size) * 8
			gbps = math.Min(engineBits, stageBits) / 1e9
		} else {
			plat := ph.platform()
			spec := tb.SpecFor(plat)
			pool := tb.PoolFor(plat)
			factor := ph.CycleFactor
			if factor <= 0 {
				factor = 1
			}
			app := (ph.BaseCycles+ph.PerByteCycles*float64(size))*factor + ph.ExtraCycles
			cycles := app
			if i == 0 {
				cycles += prof.RxCycles(spec.Arch, size)
			}
			if i == len(ps.Phases)-1 {
				cycles += prof.TxCycles(spec.Arch, ps.RespSize)
			}
			pen := tb.MemFor(plat).Penalty(ph.MemIntensity, ph.WorkingSet, spec.L3Bytes)
			t := sim.Duration(float64(sim.Cycles(cycles/spec.IPC, spec.BaseHz)) * pen)
			// Capacity in wire-payload terms: a phase serving shrunken
			// payloads still gates the same request stream.
			gbps = float64(pool.Cores()) / t.Seconds() * float64(meanReq) * 8 / 1e9
		}
		if gbps < best {
			best = gbps
		}
		size = ph.outSize(size)
	}
	return best
}
