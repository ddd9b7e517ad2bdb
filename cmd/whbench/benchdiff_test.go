package main

import (
	"os"
	"path/filepath"
	"testing"
)

func doc(recs ...benchRecord) benchDoc {
	return benchDoc{Schema: "warehousesim-bench/v1", Benchmarks: recs}
}

func rec(name string, ns float64, bytes, allocs int64) benchRecord {
	return benchRecord{Name: name, NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
}

func regressions(lines []benchDiffLine) int {
	n := 0
	for _, l := range lines {
		if len(l.regressed) > 0 {
			n++
		}
	}
	return n
}

func TestDiffBenchDocsOK(t *testing.T) {
	oldDoc := doc(rec("a", 100, 1000, 10), rec("b", 50, 0, 0))
	newDoc := doc(rec("a", 105, 900, 8), rec("b", 54, 0, 0)) // ns within 10%, fewer allocs
	lines := diffBenchDocs(oldDoc, newDoc, 0.10, true)
	if got := regressions(lines); got != 0 {
		t.Fatalf("%d regressions, want 0: %+v", got, lines)
	}
}

func TestDiffBenchDocsNsTolerance(t *testing.T) {
	oldDoc := doc(rec("a", 100, 0, 0))
	if got := regressions(diffBenchDocs(oldDoc, doc(rec("a", 125, 0, 0)), 0.10, true)); got != 1 {
		t.Fatalf("ns/op +25%% past 10%% tolerance: %d regressions, want 1", got)
	}
	if got := regressions(diffBenchDocs(oldDoc, doc(rec("a", 125, 0, 0)), 0.30, true)); got != 0 {
		t.Fatalf("ns/op +25%% within 30%% tolerance: %d regressions, want 0", got)
	}
}

func TestDiffBenchDocsAllocRegression(t *testing.T) {
	oldDoc := doc(rec("a", 100, 1000, 100))
	// ns/op improved, but the per-op allocation figures grew past the
	// amortization slack (max of ~1.5% or a small floor) — regression
	// even on a faster run.
	lines := diffBenchDocs(oldDoc, doc(rec("a", 90, 1040, 100)), 0.10, true)
	if got := regressions(lines); got != 1 {
		t.Fatalf("B/op +40 past slack: %d regressions, want 1", got)
	}
	lines = diffBenchDocs(oldDoc, doc(rec("a", 90, 1000, 103)), 0.10, true)
	if got := regressions(lines); got != 1 {
		t.Fatalf("allocs/op +3 past slack: %d regressions, want 1", got)
	}
	// Within the slack: setup-cost amortization over a different b.N,
	// not a code change.
	lines = diffBenchDocs(oldDoc, doc(rec("a", 90, 1001, 101)), 0.10, true)
	if got := regressions(lines); got != 0 {
		t.Fatalf("B/op +1, allocs/op +1 within slack: %d regressions, want 0", got)
	}
}

func TestDiffBenchDocsCrossMachine(t *testing.T) {
	oldDoc := doc(rec("a", 100, 1000, 100))
	// ns/op doubled but gateNs is off (different recording machines):
	// reported, not a regression.
	if got := regressions(diffBenchDocs(oldDoc, doc(rec("a", 200, 1000, 100)), 0.10, false)); got != 0 {
		t.Fatalf("cross-machine ns/op: %d regressions, want 0", got)
	}
	// Allocation figures gate on any machine.
	if got := regressions(diffBenchDocs(oldDoc, doc(rec("a", 200, 2000, 100)), 0.10, false)); got != 1 {
		t.Fatalf("cross-machine B/op doubled: %d regressions, want 1", got)
	}
}

func TestSameMachine(t *testing.T) {
	fp := func(model string, cpus, maxprocs int) benchDoc {
		d := doc()
		d.CPUModel, d.CPUs, d.GOMAXPROCS = model, cpus, maxprocs
		return d
	}
	if !sameMachine(fp("cpu-x", 4, 4), fp("cpu-x", 4, 4)) {
		t.Fatal("matching fingerprints not recognized")
	}
	if sameMachine(fp("cpu-x", 4, 4), fp("cpu-y", 4, 4)) {
		t.Fatal("different models matched")
	}
	if sameMachine(fp("cpu-x", 4, 4), fp("cpu-x", 8, 4)) {
		t.Fatal("different cpu counts matched")
	}
	// Same hardware, different GOMAXPROCS: a GOMAXPROCS=1 record is
	// serial regardless of the CPU count, so the runs are not comparable.
	if sameMachine(fp("cpu-x", 4, 1), fp("cpu-x", 4, 4)) {
		t.Fatal("different GOMAXPROCS matched")
	}
	// Records that predate the gomaxprocs field (0) never match, even
	// against each other: comparability must be proven, not assumed.
	if sameMachine(fp("cpu-x", 4, 0), fp("cpu-x", 4, 0)) {
		t.Fatal("gomaxprocs-less records matched")
	}
	// Records without a fingerprint (pre-cpu_model schema, non-Linux)
	// never match either.
	if sameMachine(fp("", 4, 4), fp("", 4, 4)) {
		t.Fatal("fingerprintless records matched")
	}
}

func TestDiffBenchDocsMissingBenchmark(t *testing.T) {
	oldDoc := doc(rec("a", 100, 0, 0), rec("gone", 10, 0, 0))
	lines := diffBenchDocs(oldDoc, doc(rec("a", 100, 0, 0)), 0.10, true)
	if got := regressions(lines); got != 1 {
		t.Fatalf("disappeared benchmark: %d regressions, want 1", got)
	}
	for _, l := range lines {
		if l.name == "gone" && !l.missing {
			t.Fatal("disappeared benchmark not flagged missing")
		}
	}
	// A benchmark only in the new record is informational, not a diff line.
	lines = diffBenchDocs(oldDoc, doc(rec("a", 100, 0, 0), rec("gone", 10, 0, 0), rec("new", 1, 0, 0)), 0.10, true)
	if got := regressions(lines); got != 0 {
		t.Fatalf("new-only benchmark: %d regressions, want 0", got)
	}
}

func TestReadBenchDocValidatesSchema(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v2","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBenchDoc(bad); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := readBenchDoc(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestParallelEfficiencyDerivation: the summary derives from the two
// ShardedTrial rows and is nil when either is absent, so old records
// (which predate the field) neither produce nor require it.
func TestParallelEfficiencyDerivation(t *testing.T) {
	doc := benchDoc{CPUs: 8, Benchmarks: []benchRecord{
		{Name: "ShardedTrial", NsPerOp: 4e9},
		{Name: "ShardedTrial4", NsPerOp: 2e9},
	}}
	p := parallelEfficiency(doc)
	if p == nil {
		t.Fatal("summary missing with both rows present")
	}
	if p.Speedup != 2 || p.Efficiency != 0.5 || p.Shards != 4 || p.CPUs != 8 {
		t.Errorf("summary = %+v", p)
	}
	if parallelEfficiency(benchDoc{Benchmarks: []benchRecord{{Name: "ShardedTrial", NsPerOp: 1}}}) != nil {
		t.Error("summary produced without the sharded row")
	}
}

// TestEfficiencyCurve: the curve derives one point per (workload,
// shard-count) pair whose rows are both present, and skips the rest —
// so records from older suites (no KernelTrial rows) produce a partial
// curve rather than an error.
func TestEfficiencyCurve(t *testing.T) {
	d := benchDoc{Benchmarks: []benchRecord{
		{Name: "ShardedTrial", NsPerOp: 8e9},
		{Name: "ShardedTrial2", NsPerOp: 5e9},
		{Name: "KernelTrial", NsPerOp: 4e9},
		{Name: "KernelTrial4", NsPerOp: 1e9},
	}}
	curve := efficiencyCurve(d)
	if len(curve) != 2 {
		t.Fatalf("curve has %d points, want 2 (rack@2, kernel@4): %+v", len(curve), curve)
	}
	rack, kernel := curve[0], curve[1]
	if rack.Workload != "rack" || rack.Shards != 2 || rack.Speedup != 1.6 || rack.Efficiency != 0.8 {
		t.Errorf("rack point = %+v", rack)
	}
	if kernel.Workload != "kernel" || kernel.Shards != 4 || kernel.Speedup != 4 || kernel.Efficiency != 1 {
		t.Errorf("kernel point = %+v", kernel)
	}
	d.ParallelCurve = curve
	if p := kernelEfficiencyAt(d, 4); p == nil || p.Efficiency != 1 {
		t.Errorf("kernelEfficiencyAt(4) = %+v", p)
	}
	if kernelEfficiencyAt(d, 8) != nil {
		t.Error("kernelEfficiencyAt(8) found a point that was never derived")
	}
	if efficiencyCurve(benchDoc{}) != nil {
		t.Error("empty record produced a curve")
	}
}

// effDoc builds a record with a kernel efficiency point at effShards.
func effDoc(model string, cpus, maxprocs int, eff float64) benchDoc {
	d := doc()
	d.CPUModel, d.CPUs, d.GOMAXPROCS = model, cpus, maxprocs
	d.ParallelCurve = []efficiencyPoint{{
		Workload: "kernel", Shards: effShards,
		Speedup: eff * effShards, Efficiency: eff,
	}}
	return d
}

func TestDiffEfficiencyFloor(t *testing.T) {
	same := func(eff float64) (benchDoc, benchDoc) {
		return effDoc("cpu-x", 8, 8, 0.50), effDoc("cpu-x", 8, 8, eff)
	}
	// Floor met: no error.
	oldD, newD := same(0.45)
	if err := diffEfficiency(oldD, newD, 0.40); err != nil {
		t.Errorf("efficiency 0.45 over 0.40 floor: %v", err)
	}
	// Floor violated: error.
	oldD, newD = same(0.30)
	if err := diffEfficiency(oldD, newD, 0.40); err == nil {
		t.Error("efficiency 0.30 under 0.40 floor not rejected")
	}
	// No floor requested: never an error.
	if err := diffEfficiency(oldD, newD, 0); err != nil {
		t.Errorf("floorless diff errored: %v", err)
	}
	// The machine cannot run effShards in parallel: floor skipped,
	// even though the efficiency figure is under it.
	weak := effDoc("cpu-1", 1, 1, 0.24)
	if err := diffEfficiency(weak, weak, 0.40); err != nil {
		t.Errorf("floor not skipped on a %d-CPU record: %v", weak.CPUs, err)
	}
	// New record has no kernel point at all: the floor cannot be
	// evaluated, which is an error (the gate was explicitly requested).
	if err := diffEfficiency(oldD, doc(), 0.40); err == nil {
		t.Error("missing kernel point accepted with a floor set")
	}
}

func TestDiffEfficiencyCrossFingerprint(t *testing.T) {
	oldD := effDoc("cpu-x", 8, 8, 0.50)
	newD := effDoc("cpu-y", 8, 8, 0.50)
	// Cross-fingerprint with a floor: refused with an error, even though
	// the new record on its own would pass the floor.
	if err := diffEfficiency(oldD, newD, 0.40); err == nil {
		t.Error("cross-fingerprint efficiency comparison with a floor not refused")
	}
	// Without a floor the refusal is informational only.
	if err := diffEfficiency(oldD, newD, 0); err != nil {
		t.Errorf("floorless cross-fingerprint diff errored: %v", err)
	}
}
