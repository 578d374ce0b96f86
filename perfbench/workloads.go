package main

import (
	"bytes"
	"fmt"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/snic"
)

// A workload is one set of inputs; BENCHMARK.json and README.md say why
// each was chosen. It runs its parts one after another in every pass.
// Two workloads with two parts each, rather than four of one part, give
// each run twice the time to average out the shared host's slow spells.
type workload struct {
	name  string
	parts []part
}

// A part is one group of layer calls. Its setup builds everything a
// timed pass needs — a fresh testbed (so the memo cache starts empty),
// the catalog and the synthesised traces — and returns the pass.
type part struct {
	name  string
	setup func(o setupOpts) *instance
}

type setupOpts struct {
	seed uint64
	// prof counts the simulations of every part of a workload.
	prof *snic.Profiler
	// unchecked drops WithInvariantChecks from the replay part: the
	// baseline of invariant.overhead_pct.
	unchecked bool
}

// instance is one set-up pass: the testbed's counters and the body to
// time.
type instance struct {
	prof *snic.Profiler
	tel  *snic.Telemetry
	body func(tr *tracer) (*output, error)
}

// output is what a body produced: the records the oracle checks, the
// rendered tables, and the layer outputs the traced run reports.
type output struct {
	records     []record
	rendered    []byte
	exportBytes int64
	offload     []snic.OffloadResult
	// retainedBytes is the live heap the telemetry held after
	// simulation, before export; measured only when traced.
	retainedBytes uint64
}

var (
	fig4Part   = part{"fig4-search", setupFig4}
	fleetPart  = part{"fleet-provision", setupFleet}
	chainsPart = part{"chains-traced", setupChains}
	replayPart = part{"replay-faults-checked", setupReplay}
)

var workloads = []workload{
	{"fig4-replay", []part{fig4Part, replayPart}},
	{"fleet-chains", []part{fleetPart, chainsPart}},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setup sets up every part against one profiler and returns a pass
// that runs them in order.
func (w *workload) setup(o setupOpts) *instance {
	o.prof = snic.NewProfiler()
	inst := &instance{prof: o.prof}
	parts := make([]*instance, len(w.parts))
	for i, p := range w.parts {
		parts[i] = p.setup(o)
		if parts[i].tel != nil {
			inst.tel = parts[i].tel
		}
	}
	inst.body = func(tr *tracer) (*output, error) {
		out := &output{}
		for _, p := range parts {
			po, err := p.body(tr)
			if err != nil {
				return nil, err
			}
			out.records = append(out.records, po.records...)
			out.rendered = append(out.rendered, po.rendered...)
			out.exportBytes += po.exportBytes
			out.offload = append(out.offload, po.offload...)
			out.retainedBytes += po.retainedBytes
		}
		return out, nil
	}
	return inst
}

// newTestbed builds a sequential testbed at the run's seed that reports
// to the workload's profiler.
func newTestbed(o setupOpts, extra ...snic.Option) (*snic.Testbed, []snic.Option) {
	opts := append([]snic.Option{snic.WithSeed(o.seed), snic.WithParallelism(1), snic.WithSelfProfile(o.prof)}, extra...)
	return snic.NewTestbed(opts...), opts
}

func p99(d sim.Duration) float64 { return float64(d) }

func setupFig4(o setupOpts) *instance {
	tb, _ := newTestbed(o)
	cat := snic.Benchmarks()
	return &instance{body: func(tr *tracer) (*output, error) {
		rows := make([]snic.Fig4Row, 0, len(cat))
		for _, b := range cat {
			id := tr.begin("core.Fig4For")
			rows = append(rows, tb.Fig4For([]*snic.Benchmark{b})...)
			tr.end(id)
		}
		var buf bytes.Buffer
		id := tr.begin("report.RenderFig4")
		snic.RenderFig4(&buf, rows)
		tr.end(id)
		out := &output{rendered: buf.Bytes()}
		for _, r := range rows {
			out.records = append(out.records, rec("fig4/"+r.Config.Name(),
				num("host_tput_gbps", r.Host.TputGbps), num("host_p99_ns", p99(r.Host.Latency.P99)),
				num("snic_tput_gbps", r.SNIC.TputGbps), num("snic_p99_ns", p99(r.SNIC.Latency.P99))))
		}
		return out, nil
	}}
}

func setupFleet(o setupOpts) *instance {
	tb, _ := newTestbed(o)
	classes := []snic.FleetClass{snic.NICHosts(16), snic.SNICCPUs(12), snic.SNICAccels(8)}
	servers := 0
	for _, c := range classes {
		servers += c.Count
	}
	// The seed does not reach the synthesised trace: another trace is
	// another amount of work (the provisioning search answers with other
	// fleet sizes), and the runs of one workload must cost alike across
	// seeds.
	tr0 := snic.HyperscalerTrace().Subsample(4).Scale(float64(servers)).Compress(400 * snic.Microsecond)
	specs := snic.Table5Specs()
	return &instance{body: func(tr *tracer) (*output, error) {
		out := &output{}
		var rows []snic.FleetResult
		for _, pol := range snic.FleetPolicies() {
			id := tr.begin("fleet.RunFleet")
			res, err := tb.RunFleet(snic.FleetConfig{Classes: classes, Policy: pol, Trace: tr0, Seed: 42})
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("fleet %s: %w", pol, err)
			}
			rows = append(rows, res)
			out.records = append(out.records, rec(fmt.Sprintf("fleet/%s", pol),
				num("attainment", res.Attainment), num("servers", float64(res.Servers)),
				num("agg_tput_gbps", res.AggTputGbps), num("fleet_p99_ns", p99(res.FleetP99))))
		}
		var prov []snic.ProvisionResult
		for _, spec := range specs {
			id := tr.begin("fleet.Provision")
			res, err := tb.Provision(spec, snic.ProvisionOpts{})
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("provision %s: %w", spec.App, err)
			}
			prov = append(prov, res)
			out.records = append(out.records, rec("provision/"+res.App,
				num("servers_snic", float64(res.ServersSNIC)), num("servers_nic", float64(res.ServersNIC)),
				num("savings_frac", res.SavingsFrac)))
		}
		var buf bytes.Buffer
		id := tr.begin("report.RenderFleet")
		snic.RenderFleet(&buf, rows)
		snic.RenderFleetServers(&buf, rows[2])
		snic.RenderProvision(&buf, prov)
		tr.end(id)
		out.rendered = buf.Bytes()
		return out, nil
	}}
}

// countingSink counts the bytes an exporter writes and drops them, so
// nothing reaches the disk inside the timed body.
type countingSink struct{ n int64 }

func (c *countingSink) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func setupChains(o setupOpts) *instance {
	tel := snic.NewTelemetry()
	tb, _ := newTestbed(o, snic.WithTelemetry(tel))
	var specs []*snic.PipelineSpec
	for _, mk := range []func() *snic.PipelineSpec{snic.CryptoCompressSendPipeline, snic.NATIDSPipeline} {
		for _, pol := range []snic.FallbackPolicy{snic.DropWhenFull{}, snic.SpillToHost{}} {
			ps := mk()
			ps.Fallback = pol
			specs = append(specs, ps)
		}
	}
	spec := snic.DefaultOffloadSpec()
	policies := snic.DefaultOffloadPolicies()
	return &instance{tel: tel, body: func(tr *tracer) (*output, error) {
		out := &output{}
		// The zero of obs.retained_mb: the live heap before this part,
		// which leaves out what earlier parts still hold.
		var baseLive uint64
		if tr != nil {
			tr.pause(func() { baseLive = liveHeap() })
		}
		var knees []snic.PipelineMeasurement
		var walks []snic.SaturationResult
		for _, ps := range specs {
			id := tr.begin("core.SaturationSearch")
			sat := tb.SaturationSearch(ps, snic.SaturationOpts{Seed: 42})
			tr.end(id)
			walks = append(walks, sat)
			knee := sat.Knee
			if sat.KneeGbps <= 0 {
				knee = sat.Points[0].M
			}
			knees = append(knees, knee)
			out.records = append(out.records, rec("knee/"+sat.Pipeline+"/"+sat.Policy,
				num("knee_gbps", sat.KneeGbps), num("knee_p99_ns", p99(knee.Point.Latency.P99)),
				num("spilled", float64(knee.Spilled)), num("dropped", float64(knee.Dropped))))
		}
		id := tr.begin("flow.OffloadExperiment")
		out.offload = tb.OffloadExperiment(spec, policies)
		tr.end(id)
		for _, r := range out.offload {
			out.records = append(out.records, rec("offload/"+r.Policy,
				num("slo_attainment", r.SLOAttainment), num("drop_rate", r.DropRate),
				num("fast_path_share", r.FastPathShare())))
		}
		if tr != nil {
			tr.pause(func() {
				if h := liveHeap(); h > baseLive {
					out.retainedBytes = h - baseLive
				}
			})
		}
		var sink countingSink
		for _, ex := range []struct {
			name  string
			write func(w *countingSink) error
		}{
			{"obs.WriteTrace", func(w *countingSink) error { return tel.WriteTrace(w) }},
			{"obs.WriteMetricsCSV", func(w *countingSink) error { return tel.WriteMetricsCSV(w) }},
			{"obs.WriteManifests", func(w *countingSink) error { return tel.WriteManifests(w) }},
		} {
			id := tr.begin(ex.name)
			err := ex.write(&sink)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ex.name, err)
			}
		}
		out.exportBytes = sink.n
		var buf bytes.Buffer
		id = tr.begin("report.RenderPipeline")
		snic.RenderPipeline(&buf, knees)
		snic.RenderSaturation(&buf, walks)
		snic.RenderOffload(&buf, out.offload)
		tr.end(id)
		out.rendered = buf.Bytes()
		return out, nil
	}}
}

func setupReplay(o setupOpts) *instance {
	var extra []snic.Option
	if !o.unchecked {
		extra = append(extra, snic.WithInvariantChecks())
	}
	tb, opts := newTestbed(o, extra...)
	adv := snic.NewAdvisor(opts...)
	bursty := snic.BurstyTrace(5, 72, 60, 6, 2*snic.Millisecond)
	balancers := []struct {
		name string
		lb   snic.LoadBalancer
	}{
		{"accel-only", snic.LoadBalancer{SpillQueueThreshold: 1 << 30, HWAssist: true}},
		{"software", snic.SoftwareBalancer()},
		{"hardware", snic.HardwareBalancer()},
	}
	faultTrace := snic.HyperscalerTrace().Compress(400 * snic.Microsecond)
	scns := snic.DefaultFaultScenarios(faultTrace.Duration())
	router := func() *snic.HealthRouter {
		return snic.NewHealthRouter(snic.HardwareBalancer(), snic.DefaultFailoverPolicy())
	}
	return &instance{body: func(tr *tracer) (*output, error) {
		out := &output{}
		id := tr.begin("core.Table4")
		t4 := tb.Table4()
		tr.end(id)
		for _, r := range t4 {
			out.records = append(out.records, rec("table4/"+string(r.Platform),
				num("avg_tput_gbps", r.AvgTputGbps), num("p99_ns", p99(r.P99)),
				num("avg_power_w", r.AvgPowerW), num("dropped", float64(r.Dropped))))
		}
		id = tr.begin("core.AdviseAll")
		recs := adv.AdviseAll(500 * sim.Microsecond)
		tr.end(id)
		for _, r := range recs {
			out.records = append(out.records, rec("advisor/"+r.Config.Name(), text("chosen", string(r.Chosen))))
		}
		var bal []snic.BalancedResult
		for _, b := range balancers {
			id := tr.begin("core.RunBalanced")
			res := tb.RunBalanced(b.lb, bursty, 8, 1)
			tr.end(id)
			bal = append(bal, res)
			out.records = append(out.records, rec("balanced/"+b.name,
				num("avg_tput_gbps", res.AvgTputGbps), num("p99_ns", p99(res.P99)),
				num("host_share", res.HostShare), num("dropped", float64(res.Dropped))))
		}
		id = tr.begin("core.RunFaulted")
		base := tb.RunFaulted(snic.FaultScenario{Name: "baseline"}, router(), faultTrace, 2, 42)
		tr.end(id)
		id = tr.begin("core.RunFaultedSet")
		rows := tb.RunFaultedSet(scns, router, faultTrace, 2, 42)
		tr.end(id)
		for _, r := range append([]snic.FaultResult{base}, rows...) {
			out.records = append(out.records, rec("fault/"+r.Scenario,
				num("completed", float64(r.Completed)), num("dropped", float64(r.Dropped)),
				num("min_delivered_frac", r.MinDeliveredFrac), num("p99_post_ns", p99(r.P99Post)),
				num("avg_tput_gbps", r.AvgTputGbps)))
		}
		var buf bytes.Buffer
		id = tr.begin("report.RenderReplay")
		snic.RenderTable4(&buf, t4)
		t := report.NewTable("", "benchmark", "recommendation", "reason")
		for _, r := range recs {
			t.Add(r.Config.Name(), string(r.Chosen), r.Reason)
		}
		t.Render(&buf)
		for i, b := range bal {
			fmt.Fprintf(&buf, "  %-12s %v\n", balancers[i].name, b)
		}
		snic.RenderFaults(&buf, base, rows)
		tr.end(id)
		out.rendered = buf.Bytes()
		return out, nil
	}}
}
