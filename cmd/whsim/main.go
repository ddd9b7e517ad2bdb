// Command whsim evaluates a single (design, workload) pair and prints
// the operating point: sustained performance under QoS, latency,
// per-station utilization, and the cost metrics.
//
// Usage:
//
//	whsim -system emb1 -workload websearch
//	whsim -system N2 -workload ytube
//	whsim -system desk -workload webmail -des   # discrete-event run
//	whsim -system emb1 -workload websearch -des -obs -obs-out run.jsonl
//	whsim -system emb1 -workload websearch -des -trace-out run.trace.json -attr-out attr.csv
//	whsim -system emb1 -workload websearch -des -energy-window 1s -energy-out energy.jsonl
//	whsim -system emb1 -workload websearch -des -obs -http :6060
//	whsim -system emb1 -workload websearch -des -enclosures 4 -boards 2   # a rack
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"strconv"
	"strings"
	"time"

	"warehousesim/internal/cluster"
	"warehousesim/internal/cooling"
	"warehousesim/internal/core"
	"warehousesim/internal/core/cliflags"
	"warehousesim/internal/metrics"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/energy"
	//whvet:allow nohttp whsim opts into the HTTP stack for the -http live-introspection endpoint; the cost is paid only by this binary
	"warehousesim/internal/obs/introspect"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/obs/window"
	"warehousesim/internal/platform"
	"warehousesim/internal/power"
	"warehousesim/internal/workload"
)

// rackTopoOf returns the per-rack topology behind a Topology value: the
// rack itself, or a fleet's rack template (which every rack in the
// fleet instantiates). Nil for the flat model.
func rackTopoOf(t cluster.Topology) *cluster.ShardedTopology {
	switch v := t.(type) {
	case *cluster.ShardedTopology:
		return v
	case *cluster.FleetTopology:
		return &v.Rack
	}
	return nil
}

// boardList renders a heterogeneous rack's per-enclosure board counts
// as the comma list -boards accepts, "" for a uniform rack.
func boardList(boards []int) string {
	if len(boards) == 0 {
		return ""
	}
	parts := make([]string, len(boards))
	for i, b := range boards {
		parts[i] = strconv.Itoa(b)
	}
	return strings.Join(parts, ",")
}

func designByName(name string) (core.Design, error) {
	switch name {
	case "N1":
		return core.NewN1(), nil
	case "N2":
		return core.NewN2(), nil
	}
	if s, ok := platform.ByName(name); ok {
		return core.BaselineDesign(s), nil
	}
	names := []string{"N1", "N2"}
	for _, s := range platform.All() {
		names = append(names, s.Name)
	}
	return core.Design{}, fmt.Errorf("unknown system %q (known: %s)", name, strings.Join(names, ", "))
}

// simFlags are whsim's flags.
type simFlags struct {
	system, workload       *string
	des                    *bool
	seed                   *uint64
	par                    *cliflags.Par
	measure, probeInterval *float64
	obs                    *cliflags.Obs
	traceOut, attrOut      *string
	traceEvery             *int64
	rack                   *cliflags.Rack
	fleet                  *cliflags.Fleet
	slo                    *cliflags.SLO
	energy                 *cliflags.Energy
	http                   *cliflags.HTTP
	profiles               *cliflags.Profiles
}

// addFlags defines whsim's flags on fs.
func addFlags(fs *flag.FlagSet) *simFlags {
	f := &simFlags{
		system:   fs.String("system", "srvr1", "platform or unified design (srvr1..emb2, N1, N2)"),
		workload: fs.String("workload", "websearch", "benchmark name"),
		des:      fs.Bool("des", false, "run the discrete-event simulation instead of the analytic solver"),
		seed:     fs.Uint64("seed", 1, "simulation seed (DES only)"),
		par: cliflags.AddPar(fs, runtime.NumCPU(),
			"worker goroutines for speculative search trials (1 = sequential; results are identical at any value)"),
		measure:       fs.Float64("measure", 120, "DES measurement window seconds"),
		obs:           cliflags.AddObs(fs, "observability streams of the DES run (requires -des)", "run.jsonl"),
		probeInterval: fs.Float64("probe-interval", 1, "obs timeline sampling interval, simulated seconds"),
		traceOut:      fs.String("trace-out", "", "write a Perfetto/Chrome trace-event JSON of the run's causal spans here (implies -obs)"),
		attrOut:       fs.String("attr-out", "", "write the critical-path latency-attribution table as CSV here (implies -obs)"),
		traceEvery:    fs.Int64("trace-every", 1, "span-sample every Nth request by arrival index (deterministic; 1 = all)"),
		rack:          cliflags.AddRack(fs),
	}
	f.fleet = cliflags.AddFleet(fs, f.rack)
	f.slo = cliflags.AddSLO(fs)
	f.energy = cliflags.AddEnergy(fs)
	f.http = cliflags.AddHTTP(fs, "/obs snapshot")
	f.profiles = cliflags.AddProfiles(fs)
	return f
}

// tracing reports whether a span export was asked for.
func (f *simFlags) tracing() bool { return *f.traceOut != "" || *f.attrOut != "" }

// simOptions assembles the DES run's options from the flags, at search
// parallelism par, and rejects any the simulator would. When obsOn it
// records into a fresh sink, returned with the SLO, energy and span
// planes the flags ask for attached.
func (f *simFlags) simOptions(ev *core.Evaluator, d core.Design, par int, obsOn bool) (opts cluster.SimOptions, sink *obs.Sink, err error) {
	opts = cluster.DefaultSimOptions()
	opts.Seed = *f.seed
	opts.MeasureSec = *f.measure
	opts.ProbeIntervalSec = *f.probeInterval
	opts.Parallelism = par
	// Assign through concrete pointers: storing a typed-nil
	// *ShardedTopology in the Topology interface would defeat the nil
	// check in Simulate (see SimOptions.Topology).
	if ft := f.fleet.Topology(); ft != nil {
		opts.Topology = ft
	} else if t := f.rack.Topology(); t != nil {
		opts.Topology = t
	}
	if obsOn {
		sink = obs.NewSink()
		opts.Obs = sink
		opts.SLOWindowSec = f.slo.WindowSec()
		if f.energy.Enabled() {
			pb, err := ev.PowerBreakdown(d)
			if err != nil {
				return opts, nil, err
			}
			opts.Energy = &energy.Config{
				WidthSec: f.energy.WindowSec(),
				Model:    energy.Model{Active: pb, Idle: power.DefaultIdleFractions()},
			}
		}
		if f.tracing() {
			opts.TraceEvery = *f.traceEvery
		}
	}
	if _, err := opts.Normalize(); err != nil {
		return opts, nil, err
	}
	return opts, sink, nil
}

// manifest describes the run of p on d under opts that returned res and
// recorded into sink. The caller adds the wall time.
func (f *simFlags) manifest(p workload.Profile, d core.Design, opts cluster.SimOptions, res cluster.Result, sink *obs.Sink) obs.Manifest {
	man := obs.NewManifest(p.Name, d.Name, *f.seed)
	man.Config["warmup_sec"] = strconv.FormatFloat(opts.WarmupSec, 'g', -1, 64)
	man.Config["measure_sec"] = strconv.FormatFloat(opts.MeasureSec, 'g', -1, 64)
	man.Config["probe_interval_sec"] = strconv.FormatFloat(*f.probeInterval, 'g', -1, 64)
	man.Config["max_clients"] = strconv.Itoa(opts.MaxClients)
	man.Config["clients"] = strconv.Itoa(res.Clients)
	if opts.TraceEvery > 0 {
		man.Config["trace_every"] = strconv.FormatInt(opts.TraceEvery, 10)
	}
	// Fleet fields come from the normalized topology so the manifest
	// records the resolved hot set and balancer, not "" defaults.
	if nopts, err := opts.Normalize(); err == nil {
		if ft, ok := nopts.Topology.(*cluster.FleetTopology); ok {
			man.Config["racks"] = strconv.Itoa(ft.Racks)
			man.Config["hot_racks"] = strconv.Itoa(ft.HotRacks)
			if hs := boardList(ft.HotSet); hs != "" {
				man.Config["hot_set"] = hs
			}
			man.Config["balancer"] = ft.Balancer
		}
	}
	if t := rackTopoOf(opts.Topology); t != nil {
		man.Config["enclosures"] = strconv.Itoa(t.Enclosures)
		if bl := boardList(t.Boards); bl != "" {
			man.Config["boards"] = bl
		} else {
			man.Config["boards_per_enclosure"] = strconv.Itoa(t.BoardsPerEnclosure)
		}
	}
	if p.Batch {
		man.SimTimeSec = res.ExecTime
	} else {
		man.SimTimeSec = opts.WarmupSec + opts.MeasureSec
	}
	man.SetEvents(sink.CounterValue("des.events"))
	return man
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("whsim: ")
	f := addFlags(flag.CommandLine)
	flag.Parse()

	// Flag validation: fail on nonsense, warn on silently-dead flags.
	if err := cliflags.Validate(f.rack, f.fleet, f.slo, f.energy); err != nil {
		log.Fatal(err)
	}
	if *f.measure <= 0 {
		log.Fatalf("-measure must be positive, got %g", *f.measure)
	}
	par, err := f.par.Value()
	if err != nil {
		log.Fatal(err)
	}
	tracing := f.tracing()
	// Live /obs snapshots are published from the instrumented replay, so a
	// DES run with -http needs a sink even when no export was requested —
	// but only an explicit ask should write an obs file.
	exportObs := f.obs.Enabled() || tracing
	sloOn := f.slo.Enabled()
	energyOn := f.energy.Enabled()
	// The windowed-SLO and energy planes tap the recorder stream, so
	// they need a sink even when no obs export was asked for.
	obsOn := exportObs || sloOn || energyOn
	if !*f.des {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed", "measure", "probe-interval", "trace-every", "par",
				"enclosures", "boards", "clients-per-board",
				"racks", "hot-racks", "hot-set", "balancer":
				log.Printf("warning: -%s has no effect without -des", f.Name)
			}
		})
		if sloOn {
			log.Fatal("-slo-window collects windowed metrics from the discrete-event run; add -des")
		}
		if energyOn {
			log.Fatal("-energy-window derives watts from the discrete-event run; add -des")
		}
		if obsOn {
			log.Fatal("-obs instruments the discrete-event run; add -des")
		}
	}
	if *f.probeInterval <= 0 {
		log.Fatalf("-probe-interval must be positive, got %g", *f.probeInterval)
	}
	if *f.traceEvery < 1 {
		log.Fatalf("-trace-every must be >= 1, got %d", *f.traceEvery)
	}
	if !tracing {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "trace-every" {
				log.Print("warning: -trace-every has no effect without -trace-out or -attr-out")
			}
		})
	}
	if !f.rack.Enabled() && !f.fleet.Enabled() {
		// -enclosures or -boards selects the rack; -clients-per-board
		// alone only sizes one, so it warrants a warning. With -racks it
		// sizes the fleet's per-rack template instead.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "clients-per-board" {
				log.Print("warning: -clients-per-board has no effect without -enclosures, -boards or -racks")
			}
		})
	}

	intro, bound, err := introspect.ServeAddr(f.http.Addr())
	if err != nil {
		log.Fatal(err)
	}
	if intro != nil {
		log.Printf("introspection: serving http://%s (/obs, /obs/windows, /obs/energy, /debug/pprof) for the process lifetime", bound)
		if *f.des {
			obsOn = true
		}
	}

	stopProfiles, err := f.profiles.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Print(err)
		}
	}()

	d, err := designByName(*f.system)
	if err != nil {
		log.Fatal(err)
	}
	p, ok := workload.ProfileByName(*f.workload)
	if !ok {
		log.Fatalf("unknown workload %q", *f.workload)
	}

	ev := core.NewEvaluator()
	// Build the DES options first, so a combination the simulator
	// rejects fails before the analytic lines print.
	var (
		opts cluster.SimOptions
		sink *obs.Sink
	)
	if *f.des {
		if opts, sink, err = f.simOptions(ev, d, par, obsOn); err != nil {
			log.Fatal(err)
		}
	}
	ms, err := ev.Evaluate(d, []workload.Profile{p})
	if err != nil {
		log.Fatal(err)
	}
	m := ms[0]

	fmt.Printf("system    %s\n", d.Name)
	fmt.Printf("workload  %s\n", p.Name)
	fmt.Printf("perf      %.4g %s (QoS met: %v)\n", m.Perf, m.Unit, m.QoSMet)
	fmt.Printf("power     %.1f W consumed/server\n", m.PowerW)
	fmt.Printf("inf-$     %.0f   p&c-$ %.0f   tco-$ %.0f (per server, 3yr)\n",
		m.InfUSD, m.PCUSD, m.TCOUSD)
	fmt.Printf("perf/W    %.4g   perf/inf-$ %.4g   perf/tco-$ %.4g\n",
		m.Value(metrics.PerfPerWatt), m.Value(metrics.PerfPerInf), m.Value(metrics.PerfPerTCO))

	if *f.des {
		cfg, err := ev.ClusterConfig(d, p)
		if err != nil {
			log.Fatal(err)
		}
		// OnProbeTick fires on the goroutine driving the instrumented
		// replay, the one that owns the parts, so `live` needs no
		// locking; the last handles it received serve the "done" publish
		// after the run. /obs reads the run's sink, whose manifest heads
		// the document, with every part sink that is not the sink
		// itself: a rack's parts fold into it only when the run ends, so
		// "done" reads it alone. The HTTP side only ever sees published
		// bytes.
		var live cluster.LiveHandles
		if intro != nil && sink != nil {
			horizon := opts.WarmupSec + opts.MeasureSec
			if p.Batch {
				horizon = 0 // open-ended: the job defines its own end
			}
			pub := func(phase string, simNow float64) {
				sinks := []*obs.Sink{sink}
				for _, s := range live.Obs {
					if s != sink {
						sinks = append(sinks, s)
					}
				}
				if b, err := obs.Snapshot(obs.Progress{
					Phase: phase, SimTimeSec: simNow, HorizonSec: horizon,
				}, sinks...); err == nil {
					intro.Publish(b)
				}
				if len(live.SLO) > 0 {
					if b, err := window.LiveSnapshot(live.SLO); err == nil {
						intro.PublishWindows(b)
					}
				}
				if len(live.Energy) > 0 {
					if b, err := energy.LiveSnapshot(live.Energy); err == nil {
						intro.PublishEnergy(b)
					}
				}
			}
			// The adaptive search runs uninstrumented (see cluster docs),
			// so live progress covers the instrumented replay.
			pub("search", 0)
			opts.OnProbeTick = func(simNow float64, h cluster.LiveHandles) {
				live = h
				pub("replay", simNow)
			}
			defer func() {
				live.Obs = nil
				pub("done", horizon)
			}()
		}

		start := time.Now()
		res, err := cfg.Simulate(workload.FixedGenerator{P: p}, opts)
		if err != nil {
			log.Fatal(err)
		}
		wall := time.Since(start)

		fmt.Printf("\ndiscrete-event validation:\n")
		fmt.Printf("  throughput %.4g rps with %d clients (QoS met: %v)\n",
			res.Throughput, res.Clients, res.QoSMet)
		if !p.Batch {
			fmt.Printf("  latency mean %.1f ms, p95 %.1f ms\n",
				res.MeanLatency*1e3, res.P95Latency*1e3)
		} else {
			fmt.Printf("  job execution %.1f s\n", res.ExecTime)
		}
		fmt.Printf("  bottleneck %s; utilization cpu %.0f%% disk %.0f%% net %.0f%%\n",
			res.Bottleneck, res.Utilization["cpu"]*100,
			res.Utilization["disk"]*100, res.Utilization["net"]*100)
		if fb := res.Fleet; fb != nil {
			fmt.Printf("  fleet: %d racks (%d hot DES, %d analytic), balancer %s, %.4g rps/rack demand\n",
				fb.Racks, len(fb.HotIDs), fb.Racks-len(fb.HotIDs), fb.Balancer, fb.PerRackDemand)
			if fb.ColdUnserved > 0 {
				fmt.Printf("  fleet: %.4g rps demand unserved (cold racks at capacity)\n", fb.ColdUnserved)
			}
		}

		if res.SLO != nil {
			sealed, violating := res.SLO.Counts()
			eps := res.SLO.Episodes(res.SLOParts...)
			fmt.Printf("  slo: %d windows of %gs, %d violating, %d episodes, %.2f violation-minutes\n",
				sealed, opts.SLOWindowSec, violating, len(eps), window.ViolationSec(eps)/60)
			if path := f.slo.OutPath(); path != "" {
				if err := res.SLO.WriteFile(path, res.SLOParts...); err != nil {
					log.Fatal(err)
				}
				log.Printf("slo: wrote %s (%d windows; byte-identical at any -par)", path, sealed)
			}
		}

		if res.Energy != nil {
			t := res.Energy.Totals()
			prop := res.Energy.Proportionality()
			fmt.Printf("  energy: %.0f J over %.0f s (%d windows of %gs); mean %.1f W vs static %.1f W\n",
				t.Joules, t.SpanSec, t.Windows, opts.Energy.WidthSec, t.MeanW, t.StaticW)
			fmt.Printf("  energy: %.2f J/req, %.2f J/good-req, %.4g req/J; proportionality slope %.1f W/util, intercept %.1f W\n",
				t.JoulesPerRequest, t.JoulesPerGoodRequest, t.PerfPerWatt, prop.SlopeWPerUtil, prop.InterceptW)
			if rollup, err := res.Energy.TCO(ev.Cost.PC, cooling.EnclosureFor(d.Enclosure)); err == nil {
				fmt.Printf("  energy tco: %s\n", rollup)
			}
			if path := f.energy.OutPath(); path != "" {
				if err := res.Energy.WriteFile(path); err != nil {
					log.Fatal(err)
				}
				log.Printf("energy: wrote %s (%d windows; byte-identical at any -par)", path, t.Windows)
			}
		}

		if sink != nil {
			man := f.manifest(p, d, opts, res, sink)
			man.WallSec = wall.Seconds()
			sink.SetManifest(man)

			if exportObs {
				out := f.obs.Path()
				if err := sink.WriteFile(out); err != nil {
					log.Fatal(err)
				}
				// Wall time and wall-clock event throughput go to stderr:
				// the export stays byte-identical across same-seed runs.
				log.Printf("obs: wrote %s (%d series, %d events) in %.2fs wall (%.3g events/wall-sec)",
					out, len(sink.SeriesNames()), sink.NumEvents(), wall.Seconds(),
					float64(man.Events)/wall.Seconds())
			}

			if opts.TraceEvery > 0 {
				attr := span.Analyze(sink)
				fmt.Printf("\n%s", attr)
				if *f.traceOut != "" {
					if err := span.WriteTraceFile(*f.traceOut, sink); err != nil {
						log.Fatal(err)
					}
					log.Printf("trace: wrote %s (load it at ui.perfetto.dev)", *f.traceOut)
				}
				if *f.attrOut != "" {
					if err := attr.WriteCSVFile(*f.attrOut); err != nil {
						log.Fatal(err)
					}
					log.Printf("trace: wrote attribution table %s", *f.attrOut)
				}
			}
		}
	}
}
