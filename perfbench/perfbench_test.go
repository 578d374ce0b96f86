package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func mustReference(t *testing.T) *reference {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func cloneRecords(rs []record) []record {
	out := make([]record, len(rs))
	for i, r := range rs {
		out[i] = record{Key: r.Key, Fields: append([]field(nil), r.Fields...)}
	}
	return out
}

// A record moved past the tolerance must cost ok_frac, at a recorded
// seed and at an enveloped one.
func TestPerturbedRecordFailsOkFrac(t *testing.T) {
	ref := mustReference(t)
	for _, w := range workloads {
		want, exact, ok := ref.expected(w.name, defaultSeed)
		if !ok || !exact {
			t.Fatalf("%s: no recorded reference at the default seed", w.name)
		}
		res := &result{}
		o := &oracle{ref: ref, want: want, exact: true, res: res}
		o.check(&output{records: want.Records}, nil)
		if res.matched != res.attempted || len(res.problems) != 0 {
			t.Fatalf("%s: the reference does not match itself: %v", w.name, res.problems)
		}

		for _, exact := range []bool{true, false} {
			got := cloneRecords(want.Records)
			i := len(got) / 2
			f := &got[i].Fields[len(got[i].Fields)-1]
			if f.Text != "" {
				f.Text += "-perturbed"
			} else {
				tl := tol{rel: exactTol}
				if !exact {
					tl = envelopeTol[f.Name]
				}
				f.Value = (f.Value + 2*tl.abs + 1) * 2 / (1 - tl.rel)
			}
			res := &result{}
			o := &oracle{ref: ref, want: want, exact: exact, res: res}
			o.check(&output{records: got}, nil)
			if okFrac := float64(res.matched) / float64(res.attempted); okFrac != float64(len(got)-1)/float64(len(got)) {
				t.Errorf("%s exact=%v: perturbing %s.%s gave ok_frac %v, problems %v",
					w.name, exact, got[i].Key, f.Name, okFrac, res.problems)
			}
		}
	}
}

// A second pass that differs from the run's first fails as a whole.
func TestPassDisagreeingWithFirstFails(t *testing.T) {
	ref := mustReference(t)
	want, _, _ := ref.expected("fleet-chains", 7)
	res := &result{}
	o := &oracle{ref: ref, want: want, exact: false, res: res}
	o.check(&output{records: want.Records}, nil)
	got := cloneRecords(want.Records)
	got[0].Fields[0].Value *= 1 + 1e-12
	o.check(&output{records: got}, nil)
	if res.matched != len(want.Records) {
		t.Fatalf("matched %d of %d, want only the first pass's %d", res.matched, res.attempted, len(want.Records))
	}
}

// The same seed gives the same digest and the recorded one; another
// seed gives another.
func TestDigestFollowsSeed(t *testing.T) {
	ref := mustReference(t)
	w, _ := lookupWorkload("fig4-replay")
	digestAt := func(seed uint64) string {
		out, err := runBody(w.setup(setupOpts{seed: seed}), nil)
		if err != nil {
			t.Fatal(err)
		}
		return digest(out.records)
	}
	a, b, c := digestAt(1), digestAt(1), digestAt(2)
	if a != b {
		t.Fatalf("seed 1 gave digests %s and %s", a, b)
	}
	if want, _, _ := ref.expected(w.name, 1); a != want.Digest {
		t.Errorf("seed 1 digest %s, reference %s", a, want.Digest)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 share digest %s", a)
	}
}

// Exact counts repeat bit for bit, and the timed pass never hits the
// memo cache (each pass builds a fresh testbed).
func TestExactCountsRepeatAndNoCacheHits(t *testing.T) {
	names := []string{"fig4-replay", "fleet-chains"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		w, _ := lookupWorkload(name)
		var first map[string]float64
		for i := 0; i < 2; i++ {
			inst, out, tr, _, err := tracedPass(w, 2)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			c := exactCounts(inst, out, tr)
			if c["core.cache_hits"] != 0 {
				t.Errorf("%s: %v cache hits in a timed pass", name, c["core.cache_hits"])
			}
			if c["sim.events"] == 0 || c["core.sims"] == 0 {
				t.Errorf("%s: no simulation counted: %v", name, c)
			}
			if first == nil {
				first = c
			} else if !reflect.DeepEqual(first, c) {
				t.Errorf("%s: counts differ between runs:\n%v\n%v", name, first, c)
			}
		}
		if name == "fleet-chains" && (first["obs.spans"] == 0 || first["flow.insert_rejects"] == 0) {
			t.Errorf("fleet-chains: telemetry or flow counts missing: %v", first)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every metric has a valid name and a unit, and the harness reports
// exactly what BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("metric %q unit %q: invalid", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %q declared twice", d.name)
			}
			seen[d.name] = true
		}
	}
	toDefs := func(ms []metric) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			out[i] = metricDef{m.Name, m.Unit}
		}
		return out
	}
	if got := toDefs(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", got, endToEnd)
	}
	if got := toDefs(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, harness %v", got, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
}
