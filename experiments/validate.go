package experiments

import (
	"fmt"

	"warehousesim/internal/cluster"
	"warehousesim/internal/fanout"
	"warehousesim/internal/platform"
	"warehousesim/internal/workload"
	"warehousesim/internal/workload/mapreduce"
	"warehousesim/internal/workload/webmail"
	"warehousesim/internal/workload/websearch"
	"warehousesim/internal/workload/ytube"
)

func init() {
	register("validate", "Methodology — DES vs analytic cross-validation", runValidate)
}

// validationGenerator builds a right-sized engine for DES validation.
func validationGenerator(p workload.Profile) (workload.Generator, error) {
	switch p.Class {
	case workload.Websearch:
		cfg := websearch.Config{NumDocs: 3000, VocabSize: 5000, MeanDocLen: 80,
			CorpusZipfS: 1.0, QueryZipfS: 0.9, CachedTermFraction: 0.25, Seed: 2}
		return websearch.New(cfg, p)
	case workload.Webmail:
		cfg := webmail.Config{Users: 200, InitialMessages: 15, MaxMessagesPerFolder: 60,
			AttachmentProb: 0.25, Seed: 2}
		return webmail.New(cfg, p)
	case workload.Ytube:
		cfg := ytube.DefaultConfig()
		cfg.Videos = 3000
		cfg.Seed = 2
		return ytube.New(cfg, p)
	case workload.MapReduceWC:
		cfg := mapreduce.DefaultCorpusConfig()
		cfg.TotalBytes = 2 << 20
		cfg.Seed = 2
		pp := p
		pp.JobRequests = 400
		return mapreduce.NewWordCount(cfg, pp)
	case workload.MapReduceWR:
		cfg := mapreduce.DefaultCorpusConfig()
		cfg.Seed = 2
		pp := p
		pp.JobRequests = 400
		return mapreduce.NewWrite(cfg, 64, pp)
	default:
		return workload.FixedGenerator{P: p}, nil
	}
}

// runValidate cross-checks the analytic solver (used by every headline
// experiment) against the discrete-event simulation driven by the REAL
// workload engines — the two-path methodology DESIGN.md §5 commits to.
func runValidate() (Report, error) {
	r := Report{ID: "validate", Title: "Methodology — DES vs analytic cross-validation"}
	opts := cluster.SimOptions{Seed: 7, WarmupSec: 10, MeasureSec: 60, MaxClients: 4096}
	platforms := []platform.Server{platform.Srvr2(), platform.Desk(), platform.Emb1()}

	r.addf("sustained perf: engine-driven DES / analytic solver (ratio);")
	r.addf("batch rows compare job execution time (inverse):")
	hdr := pad("", 11)
	for _, s := range platforms {
		hdr += pad(s.Name, 24)
	}
	r.Lines = append(r.Lines, hdr)

	// Every (profile, platform) cell is self-contained — fresh generator,
	// fresh Sim, fixed seed — so the grid fans across the sweep engine's
	// workers and merges in cell order (byte-identical to sequential).
	profiles := workload.SuiteProfiles()
	cells := make([]string, len(profiles)*len(platforms))
	i, err := fanout.Ordered(SweepParallelism(), len(cells), func(_, i int) error {
		prof := profiles[i/len(platforms)]
		if prof.Batch {
			prof.JobRequests = 400 // keep DES runs short; ratio is scale-free
		}
		cfg := cluster.Config{Server: platforms[i%len(platforms)]}
		ana, err := cfg.Analyze(prof)
		if err != nil {
			return err
		}
		gen, err := validationGenerator(prof)
		if err != nil {
			return err
		}
		sim, err := cfg.Simulate(gen, opts)
		if err != nil {
			return err
		}
		cells[i] = ratioX(sim.Perf / ana.Perf)
		if sim.QoSMet != ana.QoSMet {
			cells[i] += " *"
		}
		return nil
	}, nil)
	if err != nil {
		return Report{}, fmt.Errorf("validate: %s on %s: %w", profiles[i/len(platforms)].Name, platforms[i%len(platforms)].Name, err)
	}
	for pi, p := range profiles {
		row := pad(p.Name, 11)
		for si := range platforms {
			row += pad(cells[pi*len(platforms)+si], 24)
		}
		r.Lines = append(r.Lines, row)
	}
	r.addf("")
	r.addf("ratios near 1.0x validate the open-network approximation.")
	r.addf("* = the two paths disagree on QoS feasibility: these cells sit on")
	r.addf("the QoS knife edge, where the engines' heavier-than-exponential")
	r.addf("tails (attachment fetches, mailbox searches) force the adaptive")
	r.addf("driver to back off far earlier than the M/M/m model predicts —")
	r.addf("the paper's own caveat that QoS constraints punish slow platforms.")
	return r, nil
}
