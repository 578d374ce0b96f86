package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// A record is one result the workload's users read: a Fig. 4 row, a
// fleet policy's SLO attainment, a pipeline knee, a fault scenario's
// outcome. ok_frac is the share of records that match the reference.
type record struct {
	Key    string  `json:"key"`
	Fields []field `json:"fields"`
}

// field is one named value of a record: a number, or a text such as
// the advisor's chosen platform.
type field struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Text  string  `json:"text,omitempty"`
}

func num(name string, v float64) field   { return field{Name: name, Value: v} }
func text(name string, s string) field   { return field{Name: name, Text: s} }
func rec(key string, fs ...field) record { return record{Key: key, Fields: fs} }

// digest is a short hash of a record list; equal inputs and an equal
// program give equal digests.
func digest(recs []record) string {
	b, err := json.Marshal(recs)
	if err != nil {
		panic(err) // records hold only strings and finite floats
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// exactTol is the relative tolerance for a seed that has recorded
// results: the simulator is deterministic, so only the float printing
// of a future Go release could differ.
const exactTol = 1e-9

// envelopeTol gives, per field name, the tolerance against the default
// seed's results for a seed that has none recorded: a value passes when
// it is within rel×max(|got|,|want|) or within abs of the reference.
// Another seed moves every random stream, and the searches answer
// differently — across seeds 2–14 a Fig. 4 p99 moved by up to 91%, a
// throughput by 34%, a pipeline knee by 39%, a provisioned server count
// by 27% — so this check asks only "same regime"; the bounds sit well
// past those spreads. Exact checking is what the recorded seeds are
// for. A field absent here must match exactly.
var envelopeTol = map[string]tol{
	"host_tput_gbps":     {rel: 0.6},
	"snic_tput_gbps":     {rel: 0.6},
	"host_p99_ns":        {rel: 0.97},
	"snic_p99_ns":        {rel: 0.97},
	"attainment":         {rel: 0.05},
	"agg_tput_gbps":      {rel: 0.1},
	"fleet_p99_ns":       {rel: 0.15},
	"servers_snic":       {rel: 0.6},
	"servers_nic":        {rel: 0.6},
	"savings_frac":       {abs: 0.5},
	"knee_gbps":          {rel: 0.6},
	"knee_p99_ns":        {rel: 0.7},
	"spilled":            {rel: 0.9},
	"dropped":            {rel: 0.5, abs: 200},
	"slo_attainment":     {rel: 0.15},
	"drop_rate":          {rel: 0.3},
	"fast_path_share":    {rel: 0.4},
	"avg_tput_gbps":      {rel: 0.1},
	"avg_power_w":        {rel: 0.05},
	"p99_ns":             {rel: 0.15},
	"p99_post_ns":        {rel: 0.15},
	"host_share":         {rel: 0.1},
	"completed":          {rel: 0.1},
	"min_delivered_frac": {abs: 0.5},
}

// tol is a relative and an absolute tolerance; either admits a value.
type tol struct{ rel, abs float64 }

// reference holds the results recorded for fixed seeds: per seed, per
// workload, the records and the SHA-256 of the rendered tables.
type reference struct {
	Seeds map[string]map[string]entry `json:"seeds"`
}

type entry struct {
	Digest  string   `json:"digest"`
	Render  string   `json:"render_sha256"`
	Records []record `json:"records"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// defaultSeed is the testbed's own master seed: at this seed the
// benchmark reproduces the published tables.
const defaultSeed = 1

// expected returns the records a run at seed must match, whether they
// were recorded for that very seed, and the tolerance rule to use.
func (r *reference) expected(workload string, seed uint64) (want entry, exact bool, ok bool) {
	if e, found := r.Seeds[strconv.FormatUint(seed, 10)][workload]; found {
		return e, true, true
	}
	e, found := r.Seeds[strconv.FormatUint(defaultSeed, 10)][workload]
	return e, false, found
}

// check compares got with want field by field and returns how many of
// want's records matched, with a line per mismatch. A record that is
// missing, has other fields, or differs beyond the tolerance fails.
func (r *reference) check(got, want []record, exact bool) (matched int, problems []string) {
	byKey := make(map[string]record, len(got))
	for _, g := range got {
		byKey[g.Key] = g
	}
	for _, w := range want {
		g, found := byKey[w.Key]
		if !found {
			problems = append(problems, w.Key+": missing")
			continue
		}
		if p := r.compare(g, w, exact); p != "" {
			problems = append(problems, w.Key+": "+p)
			continue
		}
		matched++
	}
	sort.Strings(problems)
	return matched, problems
}

func (r *reference) compare(g, w record, exact bool) string {
	if len(g.Fields) != len(w.Fields) {
		return fmt.Sprintf("%d fields, want %d", len(g.Fields), len(w.Fields))
	}
	for i, wf := range w.Fields {
		gf := g.Fields[i]
		if gf.Name != wf.Name || gf.Text != wf.Text {
			return fmt.Sprintf("field %s=%q, want %s=%q", gf.Name, gf.Text, wf.Name, wf.Text)
		}
		t := tol{rel: exactTol}
		if !exact {
			t = envelopeTol[wf.Name]
		}
		if !near(gf.Value, wf.Value, t) {
			return fmt.Sprintf("%s=%g, want %g (tolerance %+v)", wf.Name, gf.Value, wf.Value, t)
		}
	}
	return ""
}

// near reports whether a is within t of b. Both must be finite.
func near(a, b float64, t tol) bool {
	if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
		return false
	}
	d := math.Abs(a - b)
	return d <= t.abs || d <= t.rel*math.Max(math.Abs(a), math.Abs(b))
}
