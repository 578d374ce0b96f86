package core

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// The net-serve kernel's anchor. Point runs of net-served configs,
// Table 4 replays and fleet-server replays all execute on the pipeline
// kernel; the expected values below were recorded from the separate
// executors those families had before they shared it (the point-run
// net-serve sinks, the Table 4 replay driver and the fleet-server
// replay driver). The kernel must reproduce them bit for bit: same RNG
// streams, same float evaluation order, same event structure, on every
// platform family (host CPU, SNIC CPU, accelerator engine).
func TestSinglePhasePipelineBitIdentical(t *testing.T) {
	cases := []struct {
		fn, variant string
		plat        Platform
		gbps        float64
		want        Measurement
	}{
		{fn: "nat", variant: "10K", plat: HostCPU, gbps: 2,
			want: Measurement{
				Function: "nat", Variant: "10K", Platform: "host-cpu", OfferedGbps: 2, Ops: 1720,
				TputOps: 928621.908890313, TputGbps: 1.901817669407361, DeliveredFrac: 0.9509088347036805,
				Latency:      stats.Summary{Count: 1800, Mean: 78311, P50: 75444, P99: 150888, P999: 179437, Min: 33017, Max: 229214},
				ServerPowerW: 366.9770963882126, SNICPowerW: 29, EffOpsPerJoule: 2530.4628491254816,
				EffBitsPerJoule: 5.182387915008986e+06, HostUtil: 0.9044865042409637, SNICUtil: 0,
				EngineUtil: 0,
			}},
		{fn: "nat", variant: "10K", plat: SNICCPU, gbps: 1,
			want: Measurement{
				Function: "nat", Variant: "10K", Platform: "snic-cpu", OfferedGbps: 1, Ops: 629,
				TputOps: 197652.18118137555, TputGbps: 0.4047916670594571,
				DeliveredFrac: 0.4047916670594571,
				Latency:       stats.Summary{Count: 1800, Mean: 3352574, P50: 3341061, P99: 5867746, P999: 5996232, Min: 651364, Max: 6006572},
				ServerPowerW:  255.36556953949855, SNICPowerW: 32.36556953949856,
				EffOpsPerJoule: 773.9969861160307, EffBitsPerJoule: 1.585145827565631e+06, HostUtil: 0,
				SNICUtil: 0.9898733939701645, EngineUtil: 0,
			}},
		{fn: "rem", variant: "file_executable", plat: HostCPU, gbps: 3,
			want: Measurement{
				Function: "rem", Variant: "file_executable", Platform: "host-cpu", OfferedGbps: 3,
				Ops: 1790, TputOps: 438088.11493865785, TputGbps: 2.8274627894318463,
				DeliveredFrac: 0.9424875964772821,
				Latency:       stats.Summary{Count: 1800, Mean: 3779, P50: 3715, P99: 5369, P999: 5855, Min: 2700, Max: 6243},
				ServerPowerW:  379.6309134161197, SNICPowerW: 29, EffOpsPerJoule: 1153.9843027969175,
				EffBitsPerJoule: 7.447925575893809e+06, HostUtil: 0.05517283803897819, SNICUtil: 0,
				EngineUtil: 0,
			}},
		{fn: "rem", variant: "file_executable", plat: SNICCPU, gbps: 1.5,
			want: Measurement{
				Function: "rem", Variant: "file_executable", Platform: "snic-cpu", OfferedGbps: 1.5,
				Ops: 1792, TputOps: 228805.31196046568, TputGbps: 1.443435675191452,
				DeliveredFrac: 0.9622904501276347,
				Latency:       stats.Summary{Count: 1800, Mean: 10811, P50: 10509, P99: 23935, P999: 29724, Min: 3142, Max: 30498},
				ServerPowerW:  255.4, SNICPowerW: 32.4, EffOpsPerJoule: 895.8704462038594,
				EffBitsPerJoule: 5.65166670004484e+06, HostUtil: 0, SNICUtil: 0.2481208282223953,
				EngineUtil: 0,
			}},
		{fn: "rem", variant: "file_executable", plat: SNICAccel, gbps: 8,
			want: Measurement{
				Function: "rem", Variant: "file_executable", Platform: "snic-accel", OfferedGbps: 8,
				Ops: 1786, TputOps: 1.2714512911708886e+06, TputGbps: 7.997357431582964,
				DeliveredFrac: 0.9996696789478705,
				Latency:       stats.Summary{Count: 1800, Mean: 12253, P50: 12497, P99: 17674, P999: 18456, Min: 5418, Max: 18874},
				ServerPowerW:  253.5592658621814, SNICPowerW: 30.55926586218142,
				EffOpsPerJoule: 5014.414625502064, EffBitsPerJoule: 3.1540387232110918e+07, HostUtil: 0,
				SNICUtil: 0.28757762553739535, EngineUtil: 0.3546329310907083,
			}},
	}
	for _, tc := range cases {
		cfg, err := Lookup(tc.fn, tc.variant)
		if err != nil {
			t.Fatal(err)
		}
		opts := RunOpts{Requests: 2000, WarmupFrac: 0.1, Seed: 11, OfferedGbps: tc.gbps}
		point := NewRunner().Run(cfg, tc.plat, opts)
		if !reflect.DeepEqual(point, tc.want) {
			t.Errorf("%s/%s on %s: point run diverges from the recorded result\n got:  %+v\n want: %+v",
				tc.fn, tc.variant, tc.plat, point, tc.want)
		}
		// The explicit single-phase pipeline measures the same numbers;
		// only the identity labels (pipeline name + policy key) differ.
		pm := NewRunner().RunPipeline(PipelineFromConfig(cfg, tc.plat), opts)
		got := pm.Point
		got.Function, got.Variant = tc.want.Function, tc.want.Variant
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s/%s on %s: pipeline diverges from the recorded result\n got:  %+v\n want: %+v",
				tc.fn, tc.variant, tc.plat, got, tc.want)
		}
	}

	wantT4 := []TraceReplayResult{
		TraceReplayResult{
			Platform: "host-cpu", AvgTputGbps: 0.7591335925432188, P99: 5607,
			AvgPowerW: 283.9358321070871, Dropped: 0, Sent: 38277, Completed: 38277,
		},
		TraceReplayResult{
			Platform: "snic-accel", AvgTputGbps: 0.7591477893708005, P99: 15860,
			AvgPowerW: 253.05329684259092, Dropped: 0, Sent: 38277, Completed: 38277,
		},
	}
	if got := NewRunner().Table4(DefaultTable4Config()); !reflect.DeepEqual(got, wantT4) {
		t.Errorf("Table 4 diverges from the recorded rows\n got:  %+v\n want: %+v", got, wantT4)
	}

	wantSrv := []ServerReplay{
		ServerReplay{
			Platform: "host-cpu", OfferedGbps: 6.4, AvgTputGbps: 6.805887062379815,
			AvgPowerW: 382.4070158814861, Util: 0.10674551720182629, Dropped: 0, Sent: 1138,
			Completed: 1138,
			Latency:   stats.Summary{Count: 1138, Mean: 4350, P50: 4323, P99: 5487, P999: 5983, Min: 3398, Max: 6011},
			RunID:     14724349292438887625,
		},
		ServerReplay{
			Platform: "snic-accel", OfferedGbps: 6.4, AvgTputGbps: 6.79990123382891,
			AvgPowerW: 253.39026820495593, Util: 0.1317994600572889, Dropped: 0, Sent: 1138,
			Completed: 1138,
			Latency:   stats.Summary{Count: 1138, Mean: 12715, P50: 13051, P99: 18861, P999: 19696, Min: 4945, Max: 19883},
			RunID:     4974213028916838026,
		},
	}
	cfg := TraceWorkload("rem", "file_executable")
	for i, plat := range []Platform{HostCPU, SNICAccel} {
		got := NewRunner().ReplayServer(cfg, plat, []float64{6, 0, 14, 9, 3}, 400*sim.Microsecond, 5, "anchor")
		if got.Hist.Summarize() != got.Latency {
			t.Errorf("server on %s: histogram %+v disagrees with its summary %+v", plat, got.Hist.Summarize(), got.Latency)
		}
		got.Hist = nil
		if !reflect.DeepEqual(got, wantSrv[i]) {
			t.Errorf("server on %s diverges from the recorded replay\n got:  %+v\n want: %+v", plat, got, wantSrv[i])
		}
	}
}

// Saturation walks sample points in parallel; the result must be
// byte-identical at any parallelism.
func TestSaturationSearchParallelIdentical(t *testing.T) {
	so := SaturationOpts{Points: 4, MinGbps: 10, MaxGbps: 50, Requests: 1500, Seed: 3}
	mk := func(par int) SaturationResult {
		ps := NATIDSPipeline()
		ps.Fallback = SpillToHost{}
		r := NewRunner()
		r.Parallelism = par
		return r.SaturationSearch(ps, so)
	}
	seq, par := mk(1), mk(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("saturation search diverges between -j1 and -j8:\n seq: %+v\n par: %+v", seq, par)
	}
}

// Under a tiny accelerator queue and deep overload, DropWhenFull must
// shed with the conservation ledger intact (the run executes with
// checks on: any imbalance panics), and the per-phase tallies must
// account for every injected request.
func TestFallbackConservationUnderFullQueues(t *testing.T) {
	ps := NATIDSPipeline()
	ps.Fallback = DropWhenFull{}
	ps.Phases[1].QueueCap = 4
	r := NewRunner()
	r.Checks = true
	opts := RunOpts{Requests: 3000, Seed: 5, OfferedGbps: 60}
	pm := r.RunPipeline(ps, opts)
	if pm.Dropped == 0 {
		t.Fatal("expected drops with a 4-deep accelerator queue under overload")
	}
	nat, ids := pm.Phases[0], pm.Phases[1]
	if n := nat.Served + nat.Spilled + nat.Dropped; n != 3000 {
		t.Fatalf("first phase accounts for %d of 3000 requests", n)
	}
	if n := ids.Served + ids.Spilled + ids.Dropped; n != nat.Served {
		t.Fatalf("second phase accounts for %d, first phase passed on %d", n, nat.Served)
	}
}

// The same overload with SpillToHost redirects to host cores instead of
// shedding — still conservation-clean (checks on).
func TestSpillToHostRedirectsUnderFullQueues(t *testing.T) {
	ps := NATIDSPipeline()
	ps.Fallback = SpillToHost{Watermark: 2}
	ps.Phases[1].QueueCap = 4
	r := NewRunner()
	r.Checks = true
	opts := RunOpts{Requests: 3000, Seed: 5, OfferedGbps: 60}
	pm := r.RunPipeline(ps, opts)
	if pm.Spilled == 0 {
		t.Fatal("expected spills with watermark 2 under overload")
	}
	ids := pm.Phases[1]
	if n := ids.Served + ids.Spilled + ids.Dropped; n != pm.Phases[0].Served {
		t.Fatalf("engine phase accounts for %d, upstream passed on %d", n, pm.Phases[0].Served)
	}
}

// The acceptance criterion: the saturation search separates the
// policies — spilling to host cores pushes the nat-ids knee past the
// accelerator-only knee.
func TestFallbackPoliciesSeparateKnees(t *testing.T) {
	so := SaturationOpts{Points: 6, MinGbps: 15, MaxGbps: 70, Requests: 2500, Seed: 42}
	knee := func(pol FallbackPolicy) float64 {
		ps := NATIDSPipeline()
		ps.Fallback = pol
		r := NewRunner()
		r.Parallelism = 4
		return r.SaturationSearch(ps, so).KneeGbps
	}
	drop, spill := knee(DropWhenFull{}), knee(SpillToHost{})
	if drop <= 0 || spill <= 0 {
		t.Fatalf("both walks should find a knee: drop %.2f, spill %.2f", drop, spill)
	}
	if spill <= drop {
		t.Fatalf("spill-to-host knee %.2f Gb/s should exceed drop knee %.2f Gb/s", spill, drop)
	}
}

// Validation rejects malformed pipelines with typed errors carrying the
// pipeline, phase and field.
func TestPipelineValidateTypedErrors(t *testing.T) {
	valid := func() *PipelineSpec { return NATIDSPipeline() }
	cases := []struct {
		name  string
		build func() *PipelineSpec
		field string
	}{
		{"no name", func() *PipelineSpec { ps := valid(); ps.Name = ""; return ps }, "Name"},
		{"no phases", func() *PipelineSpec { ps := valid(); ps.Phases = nil; return ps }, "Phases"},
		{"bad req size", func() *PipelineSpec { ps := valid(); ps.Mixed = false; ps.ReqSize = 0; return ps }, "ReqSize"},
		{"dup phase", func() *PipelineSpec {
			ps := valid()
			ps.Phases[1].Name = ps.Phases[0].Name
			return ps
		}, "Name"},
		{"engine on cpu phase", func() *PipelineSpec {
			ps := valid()
			ps.Phases[0].Engine = EngineREM
			return ps
		}, "Engine"},
		{"engine phase unbound", func() *PipelineSpec {
			ps := valid()
			ps.Phases[1].Engine = EngineNone
			return ps
		}, "Engine"},
		{"negative cycles", func() *PipelineSpec {
			ps := valid()
			ps.Phases[0].BaseCycles = -1
			return ps
		}, "cycles"},
		{"mem intensity", func() *PipelineSpec {
			ps := valid()
			ps.Phases[0].MemIntensity = 1.5
			return ps
		}, "MemIntensity"},
	}
	for _, tc := range cases {
		err := tc.build().Validate()
		pe, ok := err.(*PipelineError)
		if !ok {
			t.Errorf("%s: want *PipelineError, got %v", tc.name, err)
			continue
		}
		if pe.Field != tc.field {
			t.Errorf("%s: flagged field %q, want %q", tc.name, pe.Field, tc.field)
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("exemplar spec should validate: %v", err)
	}
}
