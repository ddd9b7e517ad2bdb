package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"warehousesim/internal/stats"
)

// An untraced run sets its workload up at least setupReps times and
// until setupMin has passed; setup_s is the median. A setup whose
// warm-up op takes milliseconds is thus repeated hundreds of times, so
// its median does not hang on one cold first op.
const (
	setupReps = 3
	setupMin  = time.Second
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a run's result, and the last line whperf prints.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// checker verifies each op's digest: against the golden digest of its
// input when there is one, else against the first digest that input
// produced in this run.
type checker struct {
	golden            []string
	seen              map[int]string
	attempted, failed int
	log               io.Writer
	// firstIn and firstSum are the first op's input and digest, which a
	// run prints so that two builds' runs can be compared by eye.
	firstIn  int
	firstSum string
}

func newChecker(golden []string, log io.Writer) *checker {
	return &checker{golden: golden, seen: map[int]string{}, log: log}
}

func (c *checker) check(what string, in int, sum string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(c.log, "whperf: %s input %d: %v\n", what, in, err)
		return
	}
	if c.firstSum == "" {
		c.firstIn, c.firstSum = in, sum
	}
	want, ok := c.seen[in]
	if in < len(c.golden) {
		want, ok = c.golden[in], true
	}
	if !ok {
		c.seen[in] = sum
		return
	}
	if sum != want {
		c.failed++
		fmt.Fprintf(c.log, "whperf: %s input %d: digest %s, want %s\n", what, in, sum, want)
	}
}

// fail counts a failed step that has no digest (a probe or a setup).
func (c *checker) fail(what string, err error) {
	c.attempted++
	c.failed++
	fmt.Fprintf(c.log, "whperf: %s: %v\n", what, err)
}

// runtimeSnap holds the process counters a loop reports deltas of.
type runtimeSnap struct {
	allocBytes uint64
	gcCPU      float64
	cpu        float64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnap{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), cpu: processCPU()}
}

// allocBytes is the heap allocated so far by the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

// liveHeapMB forces a collection and returns the live heap it found.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// loopResult is what one closed loop of ops measured.
type loopResult struct {
	opSec  []float64
	refSec []float64 // reference kernel samples
	alloc  uint64
	cpu    float64
	gcCPU  float64
	keep   any
}

func (l loopResult) ops() int { return len(l.opSec) }

// refEvery is how often, at most, the timed loop samples the reference
// kernel: far more often than the host's speed drifts, and rarely
// enough that sub-millisecond ops are not mostly reference kernel.
const refEvery = 100 * time.Millisecond

// timedLoop runs ops one at a time — a closed loop with one client —
// on inputs off, off+1, ... of the pool, sampling the reference kernel
// between ops (untimed as part of any op) at most every refEvery. Once
// it has run minOps ops it stops before an op that would, at the mean
// op time so far, end past seconds; it stops after maxOps ops when
// maxOps > 0. It always runs at least one op.
func timedLoop(run op, inputs, off int, seconds float64, minOps, maxOps int, tr *tracer, ck *checker) loopResult {
	var l loopResult
	before := readRuntime()
	start := time.Now()
	var lastRef time.Time
	refTotal := 0.0
	for j := 0; maxOps <= 0 || j < maxOps; j++ {
		el := time.Since(start).Seconds()
		if j > 0 && j >= minOps && el+el/float64(j) > seconds {
			break
		}
		in := (off + j) % inputs
		if time.Since(lastRef) >= refEvery {
			r := refKernel()
			l.refSec = append(l.refSec, r)
			refTotal += r
			lastRef = time.Now()
		}
		h := tr.begin("whperf.op")
		t0 := time.Now()
		sum, keep, err := run(in)
		l.opSec = append(l.opSec, time.Since(t0).Seconds())
		tr.end(h)
		ck.check("op", in, sum, err)
		l.keep = keep
	}
	after := readRuntime()
	l.alloc = after.allocBytes - before.allocBytes
	l.cpu = after.cpu - before.cpu - refTotal // the kernel is single-threaded and CPU-bound
	l.gcCPU = after.gcCPU - before.gcCPU
	return l
}

// startInput is where in the input pool a run's ops start: a pure
// function of the seed.
func startInput(seed uint64, inputs int) int {
	return int(stats.SweepSeed(seed, 0) % uint64(inputs))
}

// measureEndToEnd sets the workload up repeatedly (see setupReps; each
// setup ends with one untimed warm-up op on the first input), then
// times ops for seconds, but at least one pass over the input pool, and
// reports the end-to-end metrics. Host times are normalized
// by the reference kernel (see refkernel.go), sampled before every
// setup and between ops; slowdown is the host's slowdown it measured.
func measureEndToEnd(w workloadDef, k knobs, seed uint64, seconds float64, ck *checker) (m map[string]float64, slowdown float64, err error) {
	off := startInput(seed, w.inputs)
	var run op
	var setupSec, refSec []float64
	minSetup := setupMin
	if k.quick {
		minSetup = 0
	}
	start := time.Now()
	for r := 0; r < setupReps || time.Since(start) < minSetup; r++ {
		refSec = append(refSec, refKernel())
		t0 := time.Now()
		o, err := w.setup(k, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		sum, _, err := o(off)
		setupSec = append(setupSec, time.Since(t0).Seconds())
		ck.check("warm-up op", off, sum, err)
		run = o
	}
	l := timedLoop(run, w.inputs, off, seconds, w.inputs, 0, nil, ck)
	slowdown = median(append(refSec, l.refSec...)) / refNominalSec
	m = map[string]float64{
		"op_s_p50": median(l.opSec) / slowdown,
		"alloc_mb": float64(l.alloc) / float64(l.ops()) / 1e6,
		"setup_s":  median(setupSec) / slowdown,
	}
	// The harness's own samples grow with the op count; drop them so the
	// live heap holds only the simulator's state and the last op's
	// outputs.
	l.opSec, l.refSec = nil, nil
	m["live_mb"] = liveHeapMB()
	runtime.KeepAlive(l.keep)
	return m, slowdown, nil
}

// measureTraced sets the workload up once with spans on, runs ops for
// half of seconds untraced and then as many ops traced, and runs the
// layer probes. It returns the per-layer metrics.
func measureTraced(w workloadDef, k knobs, seed uint64, seconds float64, tr *tracer, ck *checker, suiteGolden string) (map[string]float64, error) {
	off := startInput(seed, w.inputs)
	h := tr.begin("whperf.setup")
	run, err := w.setup(k, tr)
	if err == nil {
		sum, _, oerr := run(off)
		ck.check("warm-up op", off, sum, oerr)
	}
	tr.end(h)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	tr.on = false
	plain := timedLoop(run, w.inputs, off, seconds/2, 0, 0, tr, ck)
	tr.on = true
	traced := timedLoop(run, w.inputs, off, math.Inf(1), 0, plain.ops(), tr, ck)
	peak := peakRSSMB()

	m := runProbes(k, tr, ck, suiteGolden)
	ops := float64(plain.ops() + traced.ops())
	cpu := plain.cpu + traced.cpu
	m["runtime.cpu_s"] = cpu / ops
	m["runtime.gc_cpu_frac"] = (plain.gcCPU + traced.gcCPU) / cpu
	m["runtime.peak_rss_mb"] = peak
	m["trace_overhead_frac"] = median(traced.opSec)/median(plain.opSec) - 1
	m["runtime.host_slowdown"] = median(append(plain.refSec, traced.refSec...)) / refNominalSec
	return m, nil
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// so whperf's spreads read the same as a script's. A single value is
// its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
