package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// The unified API contract: Execute dispatches to the same memoized
// implementations the legacy entry points adapt to, so results are
// byte-identical through either door.
func TestExecutePointMatchesRun(t *testing.T) {
	cfg, err := Lookup("nat", "10K")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{Requests: 1200, WarmupFrac: 0.1, Seed: 4, OfferedGbps: 2}
	legacy := NewRunner().Run(cfg, HostCPU, opts)
	res, err := NewRunner().Execute(Workload{Kind: WorkloadPoint, Config: cfg, Platform: HostCPU, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res.Point, legacy) {
		t.Fatalf("Execute diverges from Run:\n execute: %+v\n legacy:  %+v", *res.Point, legacy)
	}
}

func TestExecuteBalancedMatchesRunBalanced(t *testing.T) {
	tr := BurstyTrace(4, 60, 12, 4, 2*sim.Millisecond)
	lb := HWLoadBalancer()
	legacy := NewRunner().RunBalanced(lb, tr, 4, 9)
	res, err := NewRunner().Execute(Workload{Kind: WorkloadBalanced, Balancer: &lb, Trace: tr, HostCores: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res.Balanced, legacy) {
		t.Fatalf("Execute diverges from RunBalanced:\n execute: %+v\n legacy:  %+v", *res.Balanced, legacy)
	}
}

func TestExecuteReplayMatchesReplayTrace(t *testing.T) {
	cfg, err := Lookup("rem", "file_executable")
	if err != nil {
		t.Fatal(err)
	}
	tr := BurstyTrace(3, 20, 10, 5, sim.Millisecond)
	legacy := NewRunner().ReplayTrace(cfg, HostCPU, tr, 21)
	res, err := NewRunner().Execute(Workload{Kind: WorkloadReplay, Config: cfg, Platform: HostCPU, Trace: tr, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res.Replay, legacy) {
		t.Fatalf("Execute diverges from ReplayTrace:\n execute: %+v\n legacy:  %+v", *res.Replay, legacy)
	}
}

// Validation rejects malformed workloads with typed errors before any
// simulation runs.
func TestWorkloadValidateTypedErrors(t *testing.T) {
	cfg, err := Lookup("nat", "10K")
	if err != nil {
		t.Fatal(err)
	}
	accel, err := Lookup("rem", "file_executable")
	if err != nil {
		t.Fatal(err)
	}
	_ = accel
	local, err := Lookup("crypto", "aes")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		w     Workload
		field string
	}{
		{"unknown kind", Workload{Kind: "bogus"}, "Kind"},
		{"point no config", Workload{Kind: WorkloadPoint}, "Config"},
		{"point wrong platform", Workload{Kind: WorkloadPoint, Config: cfg, Platform: SNICAccel}, "Platform"},
		{"negative rate", Workload{Kind: WorkloadPoint, Config: cfg, Platform: HostCPU,
			Opts: RunOpts{OfferedGbps: -1}}, "Opts.OfferedGbps"},
		{"warmup out of range", Workload{Kind: WorkloadPoint, Config: cfg, Platform: HostCPU,
			Opts: RunOpts{WarmupFrac: 1}}, "Opts.WarmupFrac"},
		{"negative cores", Workload{Kind: WorkloadBalanced, HostCores: -2}, "HostCores"},
		{"replay no trace", Workload{Kind: WorkloadReplay, Config: cfg, Platform: HostCPU}, "Trace"},
		{"replay local config", Workload{Kind: WorkloadReplay, Config: local, Platform: HostCPU,
			Trace: BurstyTrace(1, 2, 4, 2, sim.Millisecond)}, "Config"},
		{"server local config", Workload{Kind: WorkloadServer, Config: local, Platform: HostCPU,
			Rates: []float64{1}, Interval: sim.Millisecond}, "Config"},
		{"server no rates", Workload{Kind: WorkloadServer, Config: cfg, Platform: HostCPU,
			Interval: sim.Millisecond}, "Rates"},
		{"server negative rate", Workload{Kind: WorkloadServer, Config: cfg, Platform: HostCPU,
			Rates: []float64{1, -1}, Interval: sim.Millisecond}, "Rates"},
		{"faulted no router", Workload{Kind: WorkloadFaulted, Scenario: &FaultScenario{}}, "Router"},
		{"pipeline missing", Workload{Kind: WorkloadPipeline}, "Pipeline"},
		{"saturation negative bounds", Workload{Kind: WorkloadSaturation, Pipeline: NATIDSPipeline(),
			Saturation: SaturationOpts{MinGbps: -5}}, "Saturation"},
	}
	r := NewRunner()
	for _, tc := range cases {
		_, err := r.Execute(tc.w)
		var we *WorkloadError
		if !errors.As(err, &we) {
			t.Errorf("%s: want *WorkloadError, got %v", tc.name, err)
			continue
		}
		if we.Field != tc.field {
			t.Errorf("%s: flagged field %q, want %q", tc.name, we.Field, tc.field)
		}
	}
}

// Nested spec validators surface their own typed errors through Execute.
func TestExecutePropagatesNestedValidation(t *testing.T) {
	r := NewRunner()
	bad := NATIDSPipeline()
	bad.Phases[0].MemIntensity = 7
	_, err := r.Execute(Workload{Kind: WorkloadPipeline, Pipeline: bad})
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PipelineError through Execute, got %v", err)
	}
	lb := DefaultLoadBalancer()
	lb.SpillQueueThreshold = -1
	_, err = r.Execute(Workload{Kind: WorkloadBalanced, Balancer: &lb,
		Trace: BurstyTrace(1, 2, 4, 2, sim.Millisecond)})
	var pae *ParamError
	if !errors.As(err, &pae) {
		t.Fatalf("want *ParamError through Execute, got %v", err)
	}
}

func TestLoadBalancerValidate(t *testing.T) {
	lb := DefaultLoadBalancer()
	if err := lb.Validate(); err != nil {
		t.Fatalf("default balancer should validate: %v", err)
	}
	lb.ReactInterval = 0
	var pe *ParamError
	if !errors.As(lb.Validate(), &pe) || pe.Param != "ReactInterval" {
		t.Fatalf("software balancer without ReactInterval should fail: %v", lb.Validate())
	}
	if err := HWLoadBalancer().Validate(); err != nil {
		t.Fatalf("hardware balancer should validate: %v", err)
	}
}

func TestTable4ConfigValidate(t *testing.T) {
	if err := DefaultTable4Config().Validate(); err != nil {
		t.Fatalf("default table4 config should validate: %v", err)
	}
	tc := DefaultTable4Config()
	tc.Trace = nil
	if tc.Validate() == nil {
		t.Fatal("nil trace should fail validation")
	}
	tc = DefaultTable4Config()
	tc.IntervalCompress = 0
	var pe *ParamError
	if !errors.As(tc.Validate(), &pe) || pe.Param != "IntervalCompress" {
		t.Fatalf("non-positive interval compression should fail: %v", tc.Validate())
	}
	tc = DefaultTable4Config()
	tc.HostCores = -1
	if !errors.As(tc.Validate(), &pe) || pe.Param != "HostCores" {
		t.Fatalf("negative host cores should fail: %v", tc.Validate())
	}
}

// Every run family counts toward Sims and the self-profile alike: the
// shared end-of-run finisher is the only place either is bumped, so one
// simulation of each family moves both by exactly one.
func TestEveryFamilyCountsTowardSimsAndProfile(t *testing.T) {
	r := NewRunner()
	prof := NewProfiler()
	r.SetProfiler(prof)
	cfg, err := Lookup("rem", "file_executable")
	if err != nil {
		t.Fatal(err)
	}
	tr := BurstyTrace(3, 20, 6, 3, sim.Millisecond)
	pipe := PipelineFromConfig(cfg, SNICAccel)
	offload := shortOffloadSpec()
	workloads := []Workload{
		{Kind: WorkloadPoint, Config: cfg, Platform: HostCPU,
			Opts: RunOpts{Requests: 800, WarmupFrac: 0.1, Seed: 2, OfferedGbps: 2}},
		{Kind: WorkloadReplay, Config: cfg, Platform: SNICAccel, Trace: tr, Seed: 3},
		{Kind: WorkloadServer, Config: cfg, Platform: HostCPU, Rates: tr.RatesGbps,
			Interval: tr.Interval, Seed: 4, Group: "sims"},
		{Kind: WorkloadBalanced, Balancer: &LoadBalancer{SpillQueueThreshold: 96, HWAssist: true},
			Trace: tr, HostCores: 2, Seed: 5},
		{Kind: WorkloadFaulted, Scenario: &FaultScenario{Name: "baseline"}, Router: testRouter(),
			Trace: tr, HostCores: 2, Seed: 6},
		{Kind: WorkloadPipeline, Pipeline: pipe, Opts: RunOpts{Requests: 800, Seed: 7, OfferedGbps: 4}},
		{Kind: WorkloadOffload, Offload: &offload},
	}
	for i, w := range workloads {
		if _, err := r.Execute(w); err != nil {
			t.Fatalf("%s: %v", w.Kind, err)
		}
		want := uint64(i + 1)
		if got := r.Sims(); got != want {
			t.Fatalf("after %s: Sims() = %d, want %d", w.Kind, got, want)
		}
		if got := prof.Snapshot().Runs; got != want {
			t.Fatalf("after %s: profiler runs = %d, want %d", w.Kind, got, want)
		}
	}
}
