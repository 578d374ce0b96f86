// Command perfbench is the repository's performance benchmark. It runs
// one workload in-process against the public simulator API, times the
// workload's body, checks every result against recorded references and
// prints one JSON object as its last line of standard output.
//
//	perfbench --workload fig4-replay --seed 1 --seconds 50 --trace 0
//
// --trace 0 repeats set-up and timed body for --seconds seconds and
// reports the end-to-end metrics (medians over the passes). --trace 1
// runs one untraced and one traced pass and reports the per-layer
// metrics; the traced pass's spans are written to --spans after the run.
//
// --record FILE --seeds 1,2 re-records the reference results instead.
// See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "seconds of timed passes (--trace 0)")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spansOut := fs.String("spans", "", "span file of a traced run (default .bench_build/perfbench/spans-<workload>-<seed>.jsonl)")
	record := fs.String("record", "", "write reference results for --seeds to this file and exit")
	seeds := fs.String("seeds", "1,2", "seeds for --record")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *record != "" {
		return recordReference(*record, *seeds)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	want, exact, ok := ref.expected(w.name, *seed)
	if !ok {
		return fmt.Errorf("no reference results for %s", w.name)
	}
	printProvenance(w.name, *seed, exact)

	var res *result
	if *traced == 1 {
		path := *spansOut
		if path == "" {
			path = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		}
		res, err = runTraced(w, *seed, want, exact, ref, path)
	} else {
		res, err = runTimed(w, *seed, *seconds, want, exact, ref)
	}
	if err != nil {
		return err
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, p)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// result is one run's outcome: correctness tallies plus metric values.
type result struct {
	attempted, matched int
	problems           []string
	defs               []metricDef
	values             map[string]float64
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) summary() any {
	m := make(map[string]metricOut, len(r.defs))
	for _, d := range r.defs {
		m[d.name] = metricOut{r.values[d.name], d.unit}
	}
	return struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{len(r.problems) == 0 && r.matched == r.attempted, r.attempted, r.attempted - r.matched, m}
}

// oracle checks each pass's output: against the reference, and against
// the run's first pass, which every later pass must repeat exactly.
type oracle struct {
	ref   *reference
	want  entry
	exact bool
	first []record
	// firstRender is the first pass's rendered tables.
	firstRender []byte
	res         *result
}

func (o *oracle) check(out *output, err error) {
	o.res.attempted += len(o.want.Records)
	if err != nil {
		o.res.problems = append(o.res.problems, err.Error())
		return
	}
	matched, problems := o.ref.check(out.records, o.want.Records, o.exact)
	if o.first == nil {
		o.first, o.firstRender = out.records, out.rendered
	} else if d, d0 := digest(out.records), digest(o.first); d != d0 {
		problems = append(problems, fmt.Sprintf("pass digest %s differs from first pass %s", d, d0))
		matched = 0
	}
	o.res.matched += matched
	o.res.problems = append(o.res.problems, problems...)
}

// timePart sets up and times one untraced pass of a single part, and
// checks that it repeats the records of the run's first pass.
func (o *oracle) timePart(w *workload, opts setupOpts) float64 {
	inst := w.setup(opts)
	runtime.GC()
	start := time.Now()
	out, err := runBody(inst, nil)
	wall := time.Since(start).Seconds()
	if err != nil {
		o.res.attempted++
		o.res.problems = append(o.res.problems, fmt.Sprintf("%s: %v", w.name, err))
		return wall
	}
	o.res.attempted += len(out.records)
	matched, problems := o.ref.check(o.first, out.records, true)
	o.res.matched += matched
	for _, p := range problems {
		o.res.problems = append(o.res.problems, w.name+" alone: "+p)
	}
	return wall
}

// runBody runs one pass, turning a panic — an invariant violation or a
// failed Execute — into an error.
func runBody(inst *instance, tr *tracer) (out *output, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return inst.body(tr)
}

// Set-up is timed in batches of enough back-to-back set-ups to last
// setupBatchSeconds: one set-up of fig4-replay takes under a
// millisecond, too short to time alone against clock and collector
// noise. setupBatchesPerPass batches follow every timed pass, so the
// batches sample the host across the whole run, as the passes do, and
// not in one short window. setup_s is the median per-set-up time of a
// batch.
const (
	setupBatchesPerPass = 5
	setupBatchSeconds   = 0.02
)

func runTimed(w *workload, seed uint64, seconds float64, want entry, exact bool, ref *reference) (*result, error) {
	res := &result{defs: endToEnd}
	o := &oracle{ref: ref, want: want, exact: exact, res: res}
	var walls, cpus, setups []float64
	batch := setupBatchLen(w, seed)
	total := 0.0
	for {
		inst := w.setup(setupOpts{seed: seed})
		runtime.GC()
		cpu0, start := cpuSeconds(), time.Now()
		out, err := runBody(inst, nil)
		wall := time.Since(start).Seconds()
		walls, cpus = append(walls, wall), append(cpus, cpuSeconds()-cpu0)
		o.check(out, err)
		total += wall
		for range setupBatchesPerPass {
			setups = append(setups, setupBatch(w, seed, batch))
		}
		// Stop once less than half a pass of the budget is left.
		if total+median(walls)/2 >= seconds {
			break
		}
	}
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}
	res.values = map[string]float64{
		"wall_s":     median(walls),
		"cpu_s":      median(cpus),
		"max_rss_mb": rss,
		"setup_s":    median(setups),
		"ok_frac":    float64(res.matched) / float64(res.attempted),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes, wall %v, setup %.6fs\n",
		w.name, seed, len(walls), fmtList(walls), res.values["setup_s"])
	return res, nil
}

// setupBatchLen returns how many back-to-back set-ups last about
// setupBatchSeconds.
func setupBatchLen(w *workload, seed uint64) int {
	runtime.GC()
	start := time.Now()
	w.setup(setupOpts{seed: seed})
	return max(1, int(setupBatchSeconds/time.Since(start).Seconds()))
}

// setupBatch times n back-to-back set-ups and returns the time of one.
func setupBatch(w *workload, seed uint64, n int) float64 {
	start := time.Now()
	for range n {
		w.setup(setupOpts{seed: seed})
	}
	return time.Since(start).Seconds() / float64(n)
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(s, " ") + "]"
}

func runTraced(w *workload, seed uint64, want entry, exact bool, ref *reference, spansPath string) (*result, error) {
	res := &result{defs: perLayer, values: map[string]float64{}}
	v := res.values
	o := &oracle{ref: ref, want: want, exact: exact, res: res}

	untraced, gc0, gc1 := untracedPass(w, seed, o)
	v["runtime.gc_cycles"] = float64(gc1.cycles - gc0.cycles)
	if d := gc1.totalCPU - gc0.totalCPU; d > 0 {
		v["runtime.gc_cpu_frac"] = (gc1.gcCPU - gc0.gcCPU) / d
	}

	// Checked execution against unchecked, on the replay part alone so
	// that the other part does not dilute the overhead.
	for _, p := range w.parts {
		if p.name != replayPart.name {
			continue
		}
		alone := &workload{name: p.name, parts: []part{p}}
		checked := o.timePart(alone, setupOpts{seed: seed})
		unchecked := o.timePart(alone, setupOpts{seed: seed, unchecked: true})
		v["invariant.checked_s"] = checked
		v["invariant.overhead_pct"] = 100 * (checked - unchecked) / unchecked
	}

	inst, out, tr, tracedWall, err := tracedPass(w, seed)
	o.check(out, err)
	if err != nil {
		return res, nil
	}
	for k, x := range exactCounts(inst, out, tr) {
		v[k] = x
	}

	layers := tr.layerTotals()
	var calls int
	var busy float64
	var allocBytes, allocObjs uint64
	for _, l := range simLayers {
		if lt := layers[l]; lt != nil {
			calls += lt.calls
			busy += lt.seconds
			allocBytes += lt.allocBytes
			allocObjs += lt.allocObj
		}
	}
	if events := v["sim.events"]; events > 0 && busy > 0 {
		v["sim.ns_per_event"] = busy * 1e9 / events
		v["sim.events_per_s"] = events / busy
		v["core.allocs_per_event"] = float64(allocObjs) / events
	}
	v["sim.push_pop_ns"] = pushPopNs(int(v["sim.heap_peak"]), seed)
	v["core.calls"] = float64(calls)
	v["core.busy_s"] = busy
	if calls > 0 {
		v["core.sims_per_call"] = v["core.sims"] / float64(calls)
	}
	v["core.alloc_mb"] = float64(allocBytes) / (1 << 20)
	v["core.replay_s"], _ = tr.sum("core.Table4")
	v["core.balanced_s"], _ = tr.sum("core.RunBalanced")
	v["core.advise_s"], _ = tr.sum("core.AdviseAll")
	faulted, _ := tr.sum("core.RunFaulted")
	faultedSet, _ := tr.sum("core.RunFaultedSet")
	v["core.faulted_s"] = faulted + faultedSet
	v["fleet.run_s"], _ = tr.sum("fleet.RunFleet")
	v["fleet.provision_s"], _ = tr.sum("fleet.Provision")
	v["flow.offload_s"], _ = tr.sum("flow.OffloadExperiment")
	if inst.tel != nil {
		v["obs.retained_mb"] = float64(out.retainedBytes) / (1 << 20)
		v["obs.export_mb"] = float64(out.exportBytes) / (1 << 20)
		if lt := layers["obs"]; lt != nil {
			v["obs.export_s"] = lt.seconds
			if spans := v["obs.spans"]; spans > 0 {
				v["obs.export_allocs_per_span"] = float64(lt.allocObj) / spans
			}
		}
	}
	// Byte identity of the rendered tables: with the recorded reference
	// where this seed has one, else with the run's untraced pass.
	if (exact && sha(out.rendered) == want.Render) || (!exact && bytes.Equal(out.rendered, o.firstRender)) {
		v["report.identical"] = 1
	}
	for name, lt := range layers {
		v["self."+name+"_s"] = lt.selfSeconds
	}
	v["trace.spans"] = float64(len(tr.spans))
	v["trace.wall_s"] = tracedWall
	v["trace.untraced_wall_s"] = untraced
	v["trace.overhead_s"] = tracedWall - untraced

	if err := writeSpans(tr, spansPath); err != nil {
		return nil, err
	}
	return res, nil
}

// untracedPass sets up, times and checks one pass without spans: the
// baseline of the tracing overhead, and the window of the Go runtime
// counters. Its testbeds are garbage once it returns, so the traced
// pass starts from the same heap.
func untracedPass(w *workload, seed uint64, o *oracle) (wall float64, gc0, gc1 gcStats) {
	inst := w.setup(setupOpts{seed: seed})
	runtime.GC()
	gc0, start := readGC(), time.Now()
	out, err := runBody(inst, nil)
	wall = time.Since(start).Seconds()
	gc1 = readGC()
	o.check(out, err)
	return wall, gc0, gc1
}

// tracedPass sets up and runs one pass with a span around every layer
// call. wall leaves out the harness's own probes.
func tracedPass(w *workload, seed uint64) (inst *instance, out *output, tr *tracer, wall float64, err error) {
	inst = w.setup(setupOpts{seed: seed})
	tr = newTracer(func() uint64 { return inst.prof.Snapshot().Runs })
	runtime.GC()
	start := time.Now()
	tr.begin("bench.pass")
	out, err = runBody(inst, tr)
	for len(tr.open) > 0 { // a panic leaves spans open
		tr.end(tr.open[len(tr.open)-1])
	}
	wall = time.Since(start).Seconds() - tr.paused.Seconds()
	return inst, out, tr, wall, err
}

// exactCounts returns the per-layer counts that are functions of the
// code and the seed alone: they repeat bit for bit between runs.
func exactCounts(inst *instance, out *output, tr *tracer) map[string]float64 {
	sp := inst.prof.Snapshot()
	c := map[string]float64{
		"sim.events":        float64(sp.Events),
		"sim.runs":          float64(sp.Runs),
		"sim.heap_peak":     float64(sp.HeapPeak),
		"sim.cancel_sweeps": float64(sp.CancelSweeps),
		"core.sims":         float64(sp.Runs),
		"core.cache_hits":   float64(sp.CacheHits),
		"core.cache_misses": float64(sp.CacheMisses),
	}
	_, provSims := tr.sum("fleet.Provision")
	c["fleet.provision_sims"] = float64(provSims)
	if inst.tel != nil {
		_, _, spans := inst.tel.Totals()
		c["obs.spans"] = float64(spans)
	}
	if len(out.offload) > 0 {
		var rejects, thrash, fast, sent uint64
		for _, r := range out.offload {
			rejects += r.InsertRejects
			thrash += r.Thrash
			fast += r.FastPath
			sent += r.Sent
		}
		c["flow.insert_rejects"] = float64(rejects)
		c["flow.thrash"] = float64(thrash)
		c["flow.fast_path_share"] = float64(fast) / float64(sent)
	}
	return c
}

func writeSpans(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.writeJSON(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// printProvenance prints, before the result line, what the numbers
// depend on besides the code.
func printProvenance(workload string, seed uint64, exact bool) {
	goVersion := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	line, _ := json.Marshal(map[string]any{
		"provenance": map[string]any{
			"workload":    workload,
			"seed":        seed,
			"reference":   map[bool]string{true: "recorded for this seed", false: "default-seed envelope"}[exact],
			"nproc":       runtime.NumCPU(),
			"gomaxprocs":  runtime.GOMAXPROCS(0),
			"gogc":        gogc,
			"go":          goVersion,
			"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
			"parallelism": 1,
		},
	})
	fmt.Println(string(line))
}
