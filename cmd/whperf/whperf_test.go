package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The tests run every workload at reduced size (knobs.quick): one or
// two ops each, so the whole file takes seconds.

func quick() knobs {
	k := defaultKnobs()
	k.quick = true
	return k
}

// opDigests sets workload name up once and returns the digests of
// inputs ins, in order.
func opDigests(t *testing.T, name string, k knobs, ins ...int) []string {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	run, err := w.setup(k, nil)
	if err != nil {
		t.Fatalf("%s setup: %v", name, err)
	}
	var sums []string
	for _, in := range ins {
		sum, _, err := run(in)
		if err != nil {
			t.Fatalf("%s input %d: %v", name, in, err)
		}
		sums = append(sums, sum)
	}
	return sums
}

func opDigest(t *testing.T, name string, k knobs, in int) string {
	t.Helper()
	return opDigests(t, name, k, in)[0]
}

// TestDigestsRepeatAndDependOnInput: an input's digest repeats, and
// the DES workloads' inputs (simulation seeds) give different digests.
// paper's inputs only reorder the artifacts, so its reports, and hence
// its digest, must not change.
func TestDigestsRepeatAndDependOnInput(t *testing.T) {
	for _, w := range workloads {
		d := opDigests(t, w.name, quick(), 1, 0, 1)
		if d[2] != d[0] {
			t.Errorf("%s: digest changed between two runs of input 1: %s then %s", w.name, d[0], d[2])
		}
		if same := d[1] == d[0]; same != (w.name == "paper") {
			t.Errorf("%s: inputs 0 and 1 gave digests %s and %s", w.name, d[0], d[1])
		}
	}
}

func TestSearchDigestIndependentOfParallelism(t *testing.T) {
	k := quick()
	seq := opDigest(t, "search", k, 2)
	k.par = 2
	if par := opDigest(t, "search", k, 2); par != seq {
		t.Errorf("search digest at Parallelism 2 = %s, at 1 = %s", par, seq)
	}
}

func TestRackDigestIndependentOfShards(t *testing.T) {
	k := quick()
	k.shards = 1
	one := opDigest(t, "rack", k, 3)
	for _, s := range []int{2, 4} {
		k.shards = s
		if got := opDigest(t, "rack", k, 3); got != one {
			t.Errorf("rack digest at %d shards = %s, at 1 = %s", s, got, one)
		}
	}
}

func TestFleetDigestIndependentOfHotSetOrder(t *testing.T) {
	k := quick()
	k.hotSet = []int{2, 7}
	want := opDigest(t, "fleet", k, 4)
	k.hotSet = []int{7, 2}
	if got := opDigest(t, "fleet", k, 4); got != want {
		t.Errorf("fleet digest with hot set {7,2} = %s, with {2,7} = %s", got, want)
	}
}

// runCLI runs whperf's command line with the given golden table and
// knobs.
func runCLI(t *testing.T, golden []byte, k knobs, args ...string) (int, outcome, string) {
	t.Helper()
	savedGolden, savedKnobs := goldenJSON, cliKnobs
	goldenJSON, cliKnobs = golden, k
	defer func() { goldenJSON, cliKnobs = savedGolden, savedKnobs }()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		t.Fatalf("last line %q is not the result object: %v\nstderr: %s", lines[len(lines)-1], err, stderr.String())
	}
	return code, o, stdout.String()
}

// TestCommittedGoldenDigests checks two rack inputs at full size
// against the committed golden digests.
func TestCommittedGoldenDigests(t *testing.T) {
	g, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	got := opDigests(t, "rack", defaultKnobs(), 0, 5)
	if got[0] != g["rack"][0] || got[1] != g["rack"][5] {
		t.Errorf("rack inputs 0 and 5 digest to %v, golden.json has %s and %s", got, g["rack"][0], g["rack"][5])
	}
}

// TestCorruptedGoldenFails runs the rack workload through the command
// line at quick size against a golden table made from its own digests,
// which must pass, and against the same table corrupted, which must
// count failed ops and exit non-zero.
func TestCorruptedGoldenFails(t *testing.T) {
	w, _ := workloadByName("rack")
	ins := make([]int, w.inputs)
	for i := range ins {
		ins[i] = i
	}
	g := map[string][]string{"experiments": {"-"}}
	for _, o := range workloads {
		g[o.name] = make([]string, o.inputs)
	}
	g["rack"] = opDigests(t, "rack", quick(), ins...)
	good, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"--workload", "rack", "--seed", "1", "--seconds", "0.01", "--trace", "0"}
	code, o, out := runCLI(t, good, quick(), args...)
	if code != 0 || !o.Correct || o.Failed != 0 || o.Attempted < w.inputs {
		t.Fatalf("matching golden: exit %d, %+v\n%s", code, o, out)
	}
	for _, d := range endToEnd {
		if _, ok := o.Metrics[d.Name]; !ok || !strings.Contains(out, "rack "+d.Name+" ") {
			t.Errorf("metric %s missing from the output", d.Name)
		}
	}

	g["rack"][3] = strings.Repeat("0", 64)
	bad, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	code, o, _ = runCLI(t, bad, quick(), args...)
	if code == 0 || o.Correct || o.Failed == 0 || o.Failed > o.Attempted {
		t.Errorf("corrupted golden: exit %d, %+v; want a non-zero exit and failed ops", code, o)
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	w, _ := workloadByName("rack")
	tr := newTracer()
	var log bytes.Buffer
	ck := newChecker(nil, &log)
	m, err := measureTraced(w, quick(), 1, 0.2, tr, ck, "")
	if err != nil || ck.failed != 0 {
		t.Fatalf("traced run: %v; %d of %d failed\n%s", err, ck.failed, ck.attempted, log.String())
	}
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			t.Errorf("per-layer metric %s not measured", d.Name)
		}
	}
	if len(m) != len(perLayer) {
		t.Errorf("traced run measured %d metrics, perLayer defines %d", len(m), len(perLayer))
	}

	self := tr.selfTimes()
	for _, name := range []string{"whperf.setup", "whperf.op", "cluster.Config.Simulate", "probe.experiments", "experiments.Execute"} {
		if _, ok := self[name]; !ok {
			t.Errorf("no span named %s", name)
		}
	}
	for name, d := range self {
		if d < 0 {
			t.Errorf("span %s has negative self time %v", name, d)
		}
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := tr.writeTrace(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) != len(tr.spans) {
		t.Fatalf("trace file: %v, %d events for %d spans", err, len(doc.TraceEvents), len(tr.spans))
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "a", ID: 1, Start: 0, End: 100},
		{Name: "b", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 50, End: 60},
		{Name: "c", ID: 4, Parent: 3, Start: 52, End: 55},
	}}
	got := tr.selfTimes()
	want := map[string]int64{"a": 60, "b": 37, "c": 3}
	for name, w := range want {
		if int64(got[name]) != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 2.25},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{1, 2, 4, 8, 16}, 1.5, 12},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.1}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"slower by 20%", lower, steady, scale(steady, 1.2), "worse"},
		{"slower by 5%", lower, steady, scale(steady, 1.05), "unchanged"},
		{"faster by 5%", lower, steady, scale(steady, 0.95), "improved"},
		{"rate up by 5%", higher, steady, scale(steady, 1.05), "improved"},
		{"rate down by 20%", higher, steady, scale(steady, 0.8), "worse"},
		{"wide spread", lower, []float64{1, 2, 1, 2, 1, 2}, []float64{1, 2, 1, 2, 1, 2}, "unresolved"},
		{"wide spread, all faster", lower, []float64{2, 3, 2, 3}, []float64{1, 1.5, 1, 1.5}, "improved"},
		{"per-layer", metricDef{Name: "x", Better: "lower"}, steady, scale(steady, 2), "info"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// benchmarkDoc is BENCHMARK.json at the repository root.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var doc benchmarkDoc
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if strings.Join(doc.Paths, ",") != "cmd/whperf" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in whperf", len(doc.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), whperf %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in whperf", len(doc.EndToEnd), len(endToEnd))
	}
	maxBound, setupBound := 0.0, 0.0
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, whperf %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in whperf", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, whperf %+v", i, m, d)
		}
	}
	seen := map[string]bool{}
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tbl {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("metric %q (unit %q) is malformed or repeated", d.Name, d.Unit)
			}
			seen[d.Name] = true
		}
	}
}
