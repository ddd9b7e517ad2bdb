// Command whperf is warehousesim's benchmark. It times the simulator on
// five product workloads (search, rack, telemetry, fleet, paper; see
// workloads.go and README.md), checks every op's simulated results
// against committed golden digests, and prints each metric as
//
//	<workload> <metric> <value> <unit>
//
// followed, as the last line, by one JSON object with the keys
// correct, attempted, failed and metrics. Simulated time and host time
// are different: every metric is host time or host memory unless its
// name says otherwise.
//
// Usage, from the repository root:
//
//	bash cmd/whperf/run.sh -seed 1 -out set.json        # all five workloads
//	bash cmd/whperf/run.sh -workload rack -seed 3        # one workload
//	bash cmd/whperf/run.sh -workload rack -trace 1 -trace-out rack.trace.json
//	bash cmd/whperf/run.sh -compare A1.json A2.json -- B1.json B2.json
//	bash cmd/whperf/run.sh -write-golden cmd/whperf/golden.json
//
// Flags may be spelled with one dash or two.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"warehousesim/experiments"
)

// goldenJSON holds the digest of every input of every workload's pool
// at full size, plus the twelve paper artifacts' report digest under
// "experiments". Regenerate it with -write-golden when a change is
// meant to alter simulated results.
//
//go:embed golden.json
var goldenJSON []byte

// cliKnobs are the knobs the command line runs workloads with; tests
// swap in reduced sizes.
var cliKnobs = defaultKnobs()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "run this workload in this process (default: every workload, each in its own child process)")
	seed := fs.Uint64("seed", 1, "input seed: picks where in each workload's input pool the ops start")
	seconds := fs.Float64("seconds", 12, "seconds of ops to time per workload")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the harness spans here as Chrome/Perfetto trace JSON")
	out := fs.String("out", "", "write the results and the machine fingerprint here as JSON (input to -compare)")
	compare := fs.Bool("compare", false, "compare result sets: -compare A.json... -- B.json... (A is the parent)")
	writeGolden := fs.String("write-golden", "", "recompute every golden digest and write them to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		return runCompare(fs.Args(), stdout, stderr)
	case *writeGolden != "":
		if err := writeGoldenFile(*writeGolden, stderr); err != nil {
			fmt.Fprintf(stderr, "whperf: %v\n", err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "whperf: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(stderr, "whperf: -trace must be 0 or 1, got %d\n", *traceMode)
		return 2
	}
	if !(*seconds > 0) || math.IsInf(*seconds, 0) {
		fmt.Fprintf(stderr, "whperf: -seconds must be positive and finite, got %g\n", *seconds)
		return 2
	}
	golden, err := parseGolden(goldenJSON)
	if err != nil {
		fmt.Fprintf(stderr, "whperf: %v\n", err)
		return 1
	}
	rc := runConfig{seed: *seed, seconds: *seconds, traced: *traceMode == 1, traceOut: *traceOut}

	set := resultSet{
		Schema: "whperf-set/v1", Seconds: *seconds, Trace: *traceMode,
		Results: map[string]outcome{}, Digests: map[string]string{},
	}
	code := 0
	if *wl == "" {
		code = runAll(rc, &set, stdout, stderr)
	} else {
		w, ok := workloadByName(*wl)
		if !ok {
			fmt.Fprintf(stderr, "whperf: unknown workload %q (known: %s)\n", *wl, strings.Join(workloadNames(), ", "))
			return 2
		}
		o, dig := runWorkload(w, cliKnobs, rc, golden, stdout, stderr)
		set.Results[w.name], set.Digests[w.name] = o, dig
		if !o.Correct {
			code = 1
		}
		if err := printJSON(stdout, o); err != nil {
			fmt.Fprintf(stderr, "whperf: %v\n", err)
			code = 1
		}
	}
	if *out != "" {
		set.Fingerprint = machine(*seed)
		if err := writeJSONFile(*out, set); err != nil {
			fmt.Fprintf(stderr, "whperf: %v\n", err)
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runConfig is what a run was asked to do.
type runConfig struct {
	seed     uint64
	seconds  float64
	traced   bool
	traceOut string
}

// runWorkload measures one workload in this process, prints its metric
// lines and its first op's digest, and returns its outcome and that
// digest ("<input>:<sha256>").
func runWorkload(w workloadDef, k knobs, rc runConfig, golden map[string][]string, stdout, stderr io.Writer) (outcome, string) {
	ck := newChecker(golden[w.name], stderr)
	var (
		m    map[string]float64
		err  error
		defs = endToEnd
		tr   *tracer
	)
	if rc.traced {
		defs, tr = perLayer, newTracer()
		suite := ""
		if g := golden["experiments"]; len(g) == 1 {
			suite = g[0]
		}
		m, err = measureTraced(w, k, rc.seed, rc.seconds, tr, ck, suite)
	} else {
		var slowdown float64
		m, slowdown, err = measureEndToEnd(w, k, rc.seed, rc.seconds, ck)
		if err == nil {
			fmt.Fprintf(stdout, "%s host_slowdown %s x\n", w.name, strconv.FormatFloat(slowdown, 'g', -1, 64))
		}
	}
	if err != nil {
		ck.fail(w.name, err)
	}

	o := outcome{Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := m[d.Name]
		switch {
		case !ok && err == nil:
			ck.fail(w.name, fmt.Errorf("metric %s was not measured", d.Name))
		case ok && (math.IsNaN(v) || math.IsInf(v, 0)):
			ck.fail(w.name, fmt.Errorf("metric %s is %g", d.Name, v))
		case ok:
			o.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
			fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
		}
	}
	if tr != nil {
		self := tr.selfTimes()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(stdout, "%s self.%s %s s\n", w.name, n, strconv.FormatFloat(self[n].Seconds(), 'g', -1, 64))
		}
		if rc.traceOut != "" {
			if err := tr.writeTrace(rc.traceOut); err != nil {
				ck.fail(w.name, err)
			}
		}
	}
	dig := ""
	if ck.firstSum != "" {
		dig = fmt.Sprintf("%d:%s", ck.firstIn, ck.firstSum)
		fmt.Fprintf(stdout, "%s digest %s\n", w.name, dig)
	}
	o.Attempted, o.Failed = ck.attempted, ck.failed
	if o.Attempted == 0 {
		o.Attempted, o.Failed = 1, 1
	}
	o.Correct = o.Failed == 0
	return o, dig
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runAll runs every workload, one after another, each in a child
// process of this binary so that no workload's heap or caches leak into
// the next one's numbers. It relays each child's metric lines and
// returns non-zero if any workload failed.
func runAll(rc runConfig, set *resultSet, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "whperf: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.name,
			"-seed", strconv.FormatUint(rc.seed, 10),
			"-seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64),
			"-trace", "0",
		}
		if rc.traced {
			args[len(args)-1] = "1"
			if rc.traceOut != "" {
				ext := filepath.Ext(rc.traceOut)
				args = append(args, "-trace-out", strings.TrimSuffix(rc.traceOut, ext)+"."+w.name+ext)
			}
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		runErr := cmd.Run()

		o := outcome{Attempted: 1, Failed: 1}
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err == nil {
			lines = lines[:len(lines)-1]
		}
		for _, l := range lines {
			fmt.Fprintln(stdout, l)
			if f := strings.Fields(l); len(f) == 3 && f[1] == "digest" {
				set.Digests[w.name] = f[2]
			}
		}
		if runErr != nil || !o.Correct {
			fmt.Fprintf(stderr, "whperf: workload %s failed (%d of %d ops; %v)\n", w.name, o.Failed, o.Attempted, runErr)
			code = 1
		}
		set.Results[w.name] = o
	}
	return code
}

// resultSet is the -out file: one run of one or more workloads.
type resultSet struct {
	Schema      string             `json:"schema"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Seconds     float64            `json:"seconds"`
	Trace       int                `json:"trace"`
	Results     map[string]outcome `json:"results"`
	Digests     map[string]string  `json:"digests"`
}

// fingerprint identifies the machine and build a set was recorded on.
type fingerprint struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Seed       uint64 `json:"seed"`
	Recorded   string `json:"recorded"`
}

func machine(seed uint64) fingerprint {
	f := fingerprint{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown",
		GoVersion: runtime.Version(), GitRev: "unknown", Seed: seed,
		Recorded: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			f.GitRev = rev
			if dirty {
				f.GitRev += "-dirty"
			}
		}
	}
	return f
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// parseGolden reads a golden digest table: workload name to the digest
// of each input of its pool, plus "experiments".
func parseGolden(b []byte) (map[string][]string, error) {
	var g map[string][]string
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	for _, w := range workloads {
		if len(g[w.name]) != w.inputs {
			return nil, fmt.Errorf("golden digests: %s has %d inputs, want %d (regenerate with -write-golden)", w.name, len(g[w.name]), w.inputs)
		}
	}
	if len(g["experiments"]) != 1 {
		return nil, errors.New("golden digests: no experiments entry (regenerate with -write-golden)")
	}
	return g, nil
}

// writeGoldenFile runs every input of every workload's pool once at
// full size, and the twelve paper artifacts, and writes their digests.
func writeGoldenFile(path string, log io.Writer) error {
	g := map[string][]string{}
	for _, w := range workloads {
		run, err := w.setup(defaultKnobs(), nil)
		if err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		for in := 0; in < w.inputs; in++ {
			sum, _, err := run(in)
			if err != nil {
				return fmt.Errorf("%s input %d: %w", w.name, in, err)
			}
			g[w.name] = append(g[w.name], sum)
		}
		fmt.Fprintf(log, "whperf: %s: %d golden digests\n", w.name, w.inputs)
	}
	experiments.SetSweepParallelism(1)
	reps, err := execute(nil, experiments.RunSpec{IDs: experimentIDs, Parallelism: 1})
	if err != nil {
		return err
	}
	g["experiments"] = []string{reportsDigest(reps)}
	return writeJSONFile(path, g)
}
