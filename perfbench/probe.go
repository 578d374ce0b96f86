package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// nopHandler is the probe's event: it does nothing, so a timed AtCall
// plus Step pair costs only the kernel's push, pop and dispatch.
type nopHandler struct{}

func (*nopHandler) HandleEvent(any) {}

// pushPopNs times sim.Engine AtCall/Step pairs with depth events pending,
// the heap depth a workload reached. Each pair schedules one event a
// pseudo-random delay ahead and executes the earliest, so the depth
// holds steady. The result is the median over batches.
func pushPopNs(depth int, seed uint64) float64 {
	const horizon, pairs, batches = 1 << 20, 200_000, 7
	eng := sim.NewEngine()
	h := &nopHandler{}
	x := seed*0x9e3779b97f4a7c15 | 1
	next := func() sim.Duration {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return sim.Duration(1 + x%horizon)
	}
	for i := 0; i < max(depth, 1); i++ {
		eng.AfterCall(next(), h, nil)
	}
	samples := make([]float64, batches)
	for b := range samples {
		start := time.Now()
		for i := 0; i < pairs; i++ {
			eng.AfterCall(next(), h, nil)
			eng.Step()
		}
		samples[b] = float64(time.Since(start).Nanoseconds()) / pairs
	}
	return median(samples)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF into a valid buffer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMB is the process's peak resident set in MiB: VmHWM, which
// unlike getrusage's ru_maxrss does not carry over the peak of the
// shell that exec'd the binary.
func maxRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcStats is a reading of the runtime's collector counters.
type gcStats struct {
	cycles          uint64
	gcCPU, totalCPU float64
}

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcStats{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
