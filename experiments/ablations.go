package experiments

import (
	"warehousesim/internal/cooling"
	"warehousesim/internal/core"
	"warehousesim/internal/cost"
	"warehousesim/internal/flashcache"
	"warehousesim/internal/memblade"
	"warehousesim/internal/metrics"
	"warehousesim/internal/platform"
	"warehousesim/internal/power"
	"warehousesim/internal/stats"
	"warehousesim/internal/trace"
)

func init() {
	register("abl-activity", "Ablation — activity factor 0.5..1.0 (§2.2)", runAblActivity)
	register("abl-tariff", "Ablation — electricity tariff $50..$170/MWh (§2.2)", runAblTariff)
	register("abl-policy", "Ablation — replacement policy (LRU/random/clock)", runAblPolicy)
	register("abl-cbf", "Ablation — CBF benefit across local-memory fractions", runAblCBF)
	register("abl-flash", "Ablation — flash cache size sweep", runAblFlash)
	register("abl-cooling", "Ablation — unified designs without new cooling", runAblCooling)
}

// runAblActivity verifies the paper's claim that results are
// qualitatively similar for activity factors 0.5–1.0.
func runAblActivity() (Report, error) {
	r := Report{ID: "abl-activity", Title: "Ablation — activity factor 0.5..1.0 (§2.2)"}
	r.addf("emb1 Perf/TCO-$ hmean relative to srvr1 under different activity factors:")
	for _, af := range []float64{0.5, 0.625, 0.75, 0.875, 1.0} {
		pm, err := power.NewModel(af)
		if err != nil {
			return Report{}, err
		}
		ev := core.NewEvaluator()
		ev.Cost = cost.Model{Power: pm, PC: cost.DefaultPCParams()}
		tbl, err := ev.EvaluateSuite([]core.Design{
			core.BaselineDesign(platform.Srvr1()), core.BaselineDesign(platform.Emb1()),
		})
		if err != nil {
			return Report{}, err
		}
		hm := tbl.HMeanRelative(metrics.PerfPerTCO, "srvr1")
		r.addf("  AF %.3f: emb1 %s", af, ratioX(hm["emb1"]))
	}
	return r, nil
}

func runAblTariff() (Report, error) {
	r := Report{ID: "abl-tariff", Title: "Ablation — electricity tariff $50..$170/MWh (§2.2)"}
	r.addf("emb1 Perf/TCO-$ hmean relative to srvr1 under different tariffs:")
	for _, tariff := range []float64{50, 100, 170} {
		pc := cost.DefaultPCParams()
		pc.TariffUSDPerMWh = tariff
		ev := core.NewEvaluator()
		ev.Cost = cost.Model{Power: power.DefaultModel(), PC: pc}
		tbl, err := ev.EvaluateSuite([]core.Design{
			core.BaselineDesign(platform.Srvr1()), core.BaselineDesign(platform.Emb1()),
		})
		if err != nil {
			return Report{}, err
		}
		hm := tbl.HMeanRelative(metrics.PerfPerTCO, "srvr1")
		r.addf("  $%3.0f/MWh: emb1 %s", tariff, ratioX(hm["emb1"]))
	}
	return r, nil
}

// ablTrace builds one synthetic trace for the policy/CBF ablations
// (engines are exercised in fig4b; the ablation isolates the simulator).
func ablTrace() (*trace.PageTrace, int64, error) {
	const footprint = 50000
	sp, err := trace.NewSyntheticPages(footprint, 0.9, 30, 0.25, 21)
	if err != nil {
		return nil, 0, err
	}
	r := stats.NewRNG(22)
	// 600k accesses over 50k pages: the local memory fills well before
	// the measurement ends, so capacity effects dominate cold misses.
	return trace.CollectPages(sp, r, 20000), footprint, nil
}

func runAblPolicy() (Report, error) {
	r := Report{ID: "abl-policy", Title: "Ablation — replacement policy (LRU/random/clock)"}
	tr, footprint, err := ablTrace()
	if err != nil {
		return Report{}, err
	}
	r.addf("miss rate on a Zipf(0.9) trace, by local fraction and policy:")
	r.addf("%-8s %10s %10s %10s", "local", "lru", "random", "clock")
	for _, frac := range []float64{0.125, 0.25, 0.5} {
		row := pad(pct(frac), 8)
		for _, pol := range []memblade.Policy{memblade.LRU, memblade.Random, memblade.Clock} {
			sim, err := memblade.New(memblade.Config{
				FootprintPages: footprint, LocalFraction: frac, Policy: pol, Seed: 5})
			if err != nil {
				return Report{}, err
			}
			st := memblade.Replay(sim, tr)
			row += pad(pct(st.MissRate()), 11)
		}
		r.Lines = append(r.Lines, row)
	}
	r.addf("")
	r.addf("(paper §3.4: an implementable policy lands between LRU and random)")
	return r, nil
}

func runAblCBF() (Report, error) {
	r := Report{ID: "abl-cbf", Title: "Ablation — CBF benefit across local-memory fractions"}
	tr, footprint, err := ablTrace()
	if err != nil {
		return Report{}, err
	}
	r.addf("relative stall time (PCIe=1.0 at 25%% local):")
	fracs := []float64{0.5, 0.25, 0.125, 0.0625}
	stalls := make([]float64, len(fracs))
	for i, frac := range fracs {
		sim, err := memblade.New(memblade.Config{
			FootprintPages: footprint, LocalFraction: frac, Policy: memblade.Random, Seed: 5})
		if err != nil {
			return Report{}, err
		}
		st := memblade.Replay(sim, tr)
		stalls[i] = st.MissesPerRequest() * memblade.PCIeX4().StallPerMissSec
	}
	base := stalls[1] // normalize at 25% local
	cbfRatio := memblade.CBF().StallPerMissSec / memblade.PCIeX4().StallPerMissSec
	r.addf("%-8s %10s %10s", "local", "pcie-x4", "cbf")
	for i, frac := range fracs {
		r.addf("%-8s %10.2f %10.2f", pct(frac), stalls[i]/base, stalls[i]*cbfRatio/base)
	}
	r.addf("(CBF cuts every point by the %.0f%% latency ratio; gains grow as local memory shrinks)",
		100*(1-memblade.CBF().StallPerMissSec/memblade.PCIeX4().StallPerMissSec))
	return r, nil
}

func runAblFlash() (Report, error) {
	r := Report{ID: "abl-flash", Title: "Ablation — flash cache size sweep"}
	ws, err := flashcache.DiskWorkingSet("websearch")
	if err != nil {
		return Report{}, err
	}
	r.addf("websearch disk-trace read hit rate by flash size:")
	for _, gb := range []float64{0.25, 0.5, 1, 2, 4} {
		sim, err := flashcache.New(flashcache.Config{
			CacheBytes: int64(gb * (1 << 30)), BlockBytes: 4096})
		if err != nil {
			return Report{}, err
		}
		rng := stats.NewRNG(9)
		// Long warm-up so even the 4 GB variant fills before measuring.
		flashcache.Replay(sim, &ws, rng, 30000)
		warm := sim.Stats()
		flashcache.Replay(sim, &ws, rng, 30000)
		st := sim.Stats()
		hits := st.ReadHits - warm.ReadHits
		reads := st.Reads - warm.Reads
		hr := 0.0
		if reads > 0 {
			hr = float64(hits) / float64(reads)
		}
		r.addf("  %4.2f GB: %s", gb, pct(hr))
	}
	r.addf("(the paper's 1 GB device sits at the knee for its scaled datasets)")
	return r, nil
}

// runAblCooling quantifies how much of N1/N2's advantage comes from the
// packaging redesign alone.
func runAblCooling() (Report, error) {
	r := Report{ID: "abl-cooling", Title: "Ablation — unified designs without new cooling"}
	ev := core.NewEvaluator()
	n1Conv := core.NewN1()
	n1Conv.Name = "N1-conv"
	n1Conv.Enclosure = cooling.Conventional
	n2Conv := core.NewN2()
	n2Conv.Name = "N2-conv"
	n2Conv.Enclosure = cooling.Conventional
	tbl, err := ev.EvaluateSuite([]core.Design{
		core.BaselineDesign(platform.Srvr1()),
		core.NewN1(), n1Conv, core.NewN2(), n2Conv,
	})
	if err != nil {
		return Report{}, err
	}
	hm := tbl.HMeanRelative(metrics.PerfPerTCO, "srvr1")
	r.addf("Perf/TCO-$ hmean vs srvr1:")
	for _, name := range []string{"N1", "N1-conv", "N2", "N2-conv"} {
		r.addf("  %-8s %s", name, ratioX(hm[name]))
	}
	r.addf("(the cooling redesign's contribution is the N1 vs N1-conv and N2 vs N2-conv gap)")
	return r, nil
}
