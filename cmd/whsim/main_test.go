package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"warehousesim/internal/core"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/workload"
)

// TestSameSeedDoubleRun is whsim's same-seed determinism check: `whsim
// -system desk -workload websearch -des -seed 7 -measure 30 -obs-out
// ... -trace-out ... -attr-out ...`, run twice in one process through
// whsim's own flags, options and manifest, must write the same obs
// export, Perfetto trace and attribution CSV.
func TestSameSeedDoubleRun(t *testing.T) {
	files := []string{"run.jsonl", "run.trace.json", "attr.csv"}
	run := func(dir string) {
		fs := flag.NewFlagSet("whsim", flag.ContinueOnError)
		f := addFlags(fs)
		err := fs.Parse([]string{"-system", "desk", "-workload", "websearch", "-des", "-seed", "7", "-measure", "30",
			"-obs-out", filepath.Join(dir, files[0]), "-trace-out", filepath.Join(dir, files[1]),
			"-attr-out", filepath.Join(dir, files[2])})
		if err != nil {
			t.Fatal(err)
		}
		par, err := f.par.Value()
		if err != nil {
			t.Fatal(err)
		}
		d, err := designByName(*f.system)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := workload.ProfileByName(*f.workload)
		ev := core.NewEvaluator()
		cfg, err := ev.ClusterConfig(d, p)
		if err != nil {
			t.Fatal(err)
		}
		opts, sink, err := f.simOptions(ev, d, par, f.obs.Enabled() || f.tracing())
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := cfg.Simulate(workload.FixedGenerator{P: p}, opts)
		if err != nil {
			t.Fatal(err)
		}
		man := f.manifest(p, d, opts, res, sink)
		man.WallSec = time.Since(start).Seconds()
		sink.SetManifest(man)
		if err := sink.WriteFile(f.obs.Path()); err != nil {
			t.Fatal(err)
		}
		if err := span.WriteTraceFile(*f.traceOut, sink); err != nil {
			t.Fatal(err)
		}
		if err := span.Analyze(sink).WriteCSVFile(*f.attrOut); err != nil {
			t.Fatal(err)
		}
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		run(dir)
	}
	for _, name := range files {
		a, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 {
			t.Errorf("%s is empty", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two same-seed runs", name)
		}
	}
}
