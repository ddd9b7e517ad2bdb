// Command whtrace works with the memory-access traces behind the
// Figure 4 experiments: generate a trace from one of the real workload
// engines (or a synthetic popularity model), save/load it in the
// compact binary format, print its locality statistics, and replay it
// through the two-level memory simulator.
//
// Usage:
//
//	whtrace -workload websearch -requests 5000 -out ws.trace
//	whtrace -in ws.trace -stats
//	whtrace -in ws.trace -replay -local 0.25 -policy lru
//	whtrace -in ws.trace -replay -obs-out replay.jsonl -trace-out replay.trace.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"warehousesim/internal/core/cliflags"
	"warehousesim/internal/memblade"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/stats"
	"warehousesim/internal/trace"
	"warehousesim/internal/workload"
	"warehousesim/internal/workload/mapreduce"
	"warehousesim/internal/workload/webmail"
	"warehousesim/internal/workload/websearch"
	"warehousesim/internal/workload/ytube"
)

func tracerFor(name string) (trace.PageTracer, workload.Profile, error) {
	p, ok := workload.ProfileByName(name)
	if !ok {
		return nil, workload.Profile{}, fmt.Errorf("unknown workload %q", name)
	}
	switch p.Class {
	case workload.Websearch:
		e, err := websearch.New(websearch.DefaultConfig(), p)
		return e, p, err
	case workload.Webmail:
		e, err := webmail.New(webmail.DefaultConfig(), p)
		return e, p, err
	case workload.Ytube:
		e, err := ytube.New(ytube.DefaultConfig(), p)
		return e, p, err
	case workload.MapReduceWC:
		e, err := mapreduce.NewWordCount(mapreduce.DefaultCorpusConfig(), p)
		return e, p, err
	case workload.MapReduceWR:
		e, err := mapreduce.NewWrite(mapreduce.DefaultCorpusConfig(), 64, p)
		return e, p, err
	default:
		return nil, p, fmt.Errorf("workload %q has no tracer", name)
	}
}

func policyFor(name string) (memblade.Policy, error) {
	switch name {
	case "lru":
		return memblade.LRU, nil
	case "random":
		return memblade.Random, nil
	case "clock":
		return memblade.Clock, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (lru, random, clock)", name)
	}
}

// generate collects a page trace of requests requests from workload
// wl's engine and returns it with the workload's footprint in pages.
func generate(wl string, seed uint64, requests int) (*trace.PageTrace, int64, error) {
	tracer, p, err := tracerFor(wl)
	if err != nil {
		return nil, 0, err
	}
	fmt.Printf("tracing %d %s requests...\n", requests, p.Name)
	return trace.CollectPages(tracer, stats.NewRNG(seed), requests), int64(p.MemFootprintMB * 1e6 / 4096), nil
}

// instrument attaches a fresh sink to sim's hit/miss streams, sampling
// the hit-rate series every sampleEvery accesses and span-tracing every
// traceEvery-th access.
func instrument(sim *memblade.Sim, sampleEvery, traceEvery int64) *obs.Sink {
	sink := obs.NewSink()
	sim.Instrument(sink, sampleEvery)
	sim.InstrumentSpans(span.NewTracer(sink, traceEvery))
	return sink
}

// replayManifest describes a replay of workload wl under cfg. The
// replay's time axis is the access count, so the manifest reports
// accesses in SimTimeSec's role and hit/miss streams export exactly
// like the cluster path's request streams.
func replayManifest(wl string, cfg memblade.Config, traceEvery int64, st memblade.Stats) obs.Manifest {
	man := obs.NewManifest(wl, "memblade", cfg.Seed)
	man.Config["local_fraction"] = strconv.FormatFloat(cfg.LocalFraction, 'g', -1, 64)
	man.Config["policy"] = cfg.Policy.String()
	man.Config["footprint_pages"] = strconv.FormatInt(cfg.FootprintPages, 10)
	man.Config["trace_every"] = strconv.FormatInt(traceEvery, 10)
	man.SimTimeSec = float64(st.Accesses)
	return man
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("whtrace: ")
	wl := flag.String("workload", "websearch", "workload engine to trace")
	requests := flag.Int("requests", 5000, "requests to trace")
	seed := flag.Uint64("seed", 1, "trace seed")
	out := flag.String("out", "", "write the trace to this file")
	in := flag.String("in", "", "read a trace from this file instead of generating")
	showStats := flag.Bool("stats", true, "print locality statistics")
	replay := flag.Bool("replay", false, "replay through the two-level memory simulator")
	local := flag.Float64("local", 0.25, "local-memory fraction for -replay")
	policy := flag.String("policy", "random", "replacement policy for -replay")
	obsFlags := cliflags.AddObs(flag.CommandLine, "the replay's memblade hit/miss streams (requires -replay)", "replay.jsonl")
	traceOut := flag.String("trace-out", "", "write a Perfetto trace of the replay's swap/CBF spans here (implies -obs)")
	traceEvery := flag.Int64("trace-every", 1, "span-sample every Nth access by access index (1 = all)")
	sampleEvery := flag.Int64("sample-every", 1024, "hit-rate series sampling stride, accesses")
	profiles := cliflags.AddProfiles(flag.CommandLine)
	flag.Parse()

	obsOn := obsFlags.Enabled() || *traceOut != ""
	if obsOn && !*replay {
		log.Fatal("-obs records the replay; add -replay")
	}
	if *traceEvery < 1 {
		log.Fatalf("-trace-every must be >= 1, got %d", *traceEvery)
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

	var tr *trace.PageTrace
	var footprint int64

	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tr, err = trace.DecodePages(f)
		if err != nil {
			log.Fatal(err)
		}
		footprint = trace.AnalyzePages(tr).MaxPage + 1
		fmt.Printf("loaded %s: %d requests, %d accesses\n", *in, tr.Requests(), len(tr.Accesses))
	} else {
		tr, footprint, err = generate(*wl, *seed, *requests)
		if err != nil {
			log.Fatal(err)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.EncodePages(f, tr); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		info, err := os.Stat(*out)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes, %.2f bytes/access)\n",
			*out, info.Size(), float64(info.Size())/float64(len(tr.Accesses)))
	}

	if *showStats {
		fmt.Println(trace.AnalyzePages(tr))
	}

	if *replay {
		pol, err := policyFor(*policy)
		if err != nil {
			log.Fatal(err)
		}
		cfg := memblade.Config{FootprintPages: footprint, LocalFraction: *local, Policy: pol, Seed: *seed}
		sim, err := memblade.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		var sink *obs.Sink
		if obsOn {
			sink = instrument(sim, *sampleEvery, *traceEvery)
		}
		start := time.Now()
		st := memblade.Replay(sim, tr)
		wall := time.Since(start)
		fmt.Printf("replay: local %.3g (%d pages, %s): miss rate %.2f%%, %.2f misses/request, %d writebacks\n",
			*local, sim.Capacity(), pol, st.MissRate()*100, st.MissesPerRequest(), st.Writebacks)
		for _, ic := range []memblade.Interconnect{memblade.PCIeX4(), memblade.CBF()} {
			fmt.Printf("  %s stall per request: %.1f us\n",
				ic.Name, st.MissesPerRequest()*ic.StallPerMissSec*1e6)
		}

		if sink != nil {
			man := replayManifest(*wl, cfg, *traceEvery, st)
			man.WallSec = wall.Seconds()
			sink.SetManifest(man)

			out := obsFlags.Path()
			if err := sink.WriteFile(out); err != nil {
				log.Fatal(err)
			}
			log.Printf("obs: wrote %s (%d events) in %.2fs wall", out, sink.NumEvents(), wall.Seconds())
			if *traceOut != "" {
				if err := span.WriteTraceFile(*traceOut, sink); err != nil {
					log.Fatal(err)
				}
				log.Printf("trace: wrote %s (time axis = access index; load it at ui.perfetto.dev)", *traceOut)
			}
		}
	}
}
