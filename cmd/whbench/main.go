// Command whbench regenerates the paper's evaluation: every table and
// figure (plus the ablation studies) as textual reports comparing the
// model against the published numbers.
//
// Usage:
//
//	whbench              # run everything
//	whbench -exp fig2c   # run one experiment
//	whbench -list        # list experiment ids
//	whbench -obs -obs-out suite.jsonl   # record per-experiment streams
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"warehousesim/experiments"
	"warehousesim/internal/core/cliflags"
	"warehousesim/internal/obs"
	//whvet:allow nohttp whbench opts into the HTTP stack for the -http live-introspection endpoint; the cost is paid only by this binary
	"warehousesim/internal/obs/introspect"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("whbench: ")
	exp := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	obsFlags := cliflags.AddObs(flag.CommandLine, "registry-level observability streams", "bench.jsonl")
	parFlag := cliflags.AddPar(flag.CommandLine, runtime.NumCPU(),
		"worker goroutines for the experiment suite and its internal sweeps (1 = sequential; reports are identical at any value)")
	httpFlag := cliflags.AddHTTP(flag.CommandLine, "/obs snapshot with per-experiment progress")
	rack := cliflags.AddRack(flag.CommandLine)
	fleet := cliflags.AddFleet(flag.CommandLine, rack)
	profiles := cliflags.AddProfiles(flag.CommandLine)
	flag.Parse()

	if err := cliflags.Validate(rack, fleet); err != nil {
		log.Fatal(err)
	}
	if err := fleet.TemplateOnly(); err != nil {
		log.Fatal(err)
	}
	obsOn := obsFlags.Enabled()
	par, err := parFlag.Value()
	if err != nil {
		log.Fatal(err)
	}

	stopProfiles, err := profiles.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Print(err)
		}
	}()

	if *list {
		titles := experiments.Titles()
		for _, id := range experiments.IDs() {
			fmt.Printf("%-14s %s\n", id, titles[id])
		}
		return
	}

	// Live /obs progress snapshots need a sink even when no export was
	// requested — but only an explicit ask should write an obs file.
	intro, bound, err := introspect.ServeAddr(httpFlag.Addr())
	if err != nil {
		log.Fatal(err)
	}
	if intro != nil {
		log.Printf("introspection: serving http://%s (/obs, /debug/pprof) for the process lifetime", bound)
	}

	var sink *obs.Sink
	if obsOn || intro != nil {
		sink = obs.NewSink()
	}
	start := time.Now()

	// One RunSpec covers every call shape: -exp restricts the selection,
	// -obs attaches the sink, -par sizes the suite pool, and the
	// introspection hook rides Progress. Per-experiment progress is
	// published with the experiment id as the phase; the hook fires on
	// the commit goroutine, so suite workers never touch the sink.
	spec := experiments.RunSpec{Recorder: sink, Parallelism: par}
	if ft := fleet.Topology(); ft != nil {
		spec.Fleet = ft
	}
	runID := "all"
	if *exp != "" {
		runID = *exp
		spec.IDs = []string{*exp}
	}
	if intro != nil {
		pub := func(phase string, done, total int) {
			if b, err := sink.Snapshot(obs.Progress{
				Phase: phase, SimTimeSec: float64(done), HorizonSec: float64(total),
			}); err == nil {
				intro.Publish(b)
			}
		}
		total := len(experiments.IDs())
		if *exp != "" {
			total = 1
		}
		pub("start", 0, total)
		spec.Progress = func(p experiments.SuiteProgress) { pub(p.ID, p.Done, p.Total) }
		defer func() { pub("done", total, total) }()
	}

	experiments.SetSweepParallelism(par)
	reps, err := experiments.Execute(spec)
	if err != nil {
		log.Fatal(err)
	}
	if *exp != "" {
		fmt.Print(reps[0])
	} else {
		for _, rep := range reps {
			fmt.Println(rep)
		}
	}

	if sink != nil && obsOn {
		man := obs.NewManifest("suite", runID, 0)
		man.Config["experiments"] = fmt.Sprintf("%d", sink.CounterValue("experiments.runs"))
		man.WallSec = time.Since(start).Seconds()
		sink.SetManifest(man)
		out := obsFlags.Path()
		if err := sink.WriteFile(out); err != nil {
			log.Fatal(err)
		}
		log.Printf("obs: wrote %s (%d experiments) in %.2fs wall",
			out, sink.CounterValue("experiments.runs"), man.WallSec)
	}
}
