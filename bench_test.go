// Package bench is the benchmark harness required by the reproduction:
// one testing.B benchmark per paper table and figure (each regenerates
// the artifact through the experiments registry), plus micro-benchmarks
// of the workload engines and trace collection. The substrate
// micro-benchmarks (trials, memory blade, flash cache, Zipf sampler)
// live in the packages they measure, where an in-package test gates
// their allocations.
//
// Run with:
//
//	go test -bench=. -benchmem ./...
package bench

import (
	"testing"

	"warehousesim/experiments"
	"warehousesim/internal/stats"
	"warehousesim/internal/trace"
	"warehousesim/internal/workload/mapreduce"
	"warehousesim/internal/workload/websearch"
)

// benchExperiment runs one registry experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		reps, err := experiments.Execute(experiments.RunSpec{IDs: []string{id}})
		if err != nil {
			b.Fatal(err)
		}
		rep := reps[0]
		if len(rep.Lines) == 0 {
			b.Fatalf("%s produced an empty report", id)
		}
	}
}

// One benchmark per paper artifact (DESIGN.md per-experiment index).

func BenchmarkTable1(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)             { benchExperiment(b, "fig1") }
func BenchmarkTable2(b *testing.B)           { benchExperiment(b, "table2") }
func BenchmarkFig2Breakdowns(b *testing.B)   { benchExperiment(b, "fig2ab") }
func BenchmarkFig2Efficiency(b *testing.B)   { benchExperiment(b, "fig2c") }
func BenchmarkFig3Cooling(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4Memory(b *testing.B)       { benchExperiment(b, "fig4b") }
func BenchmarkFig4Provisioning(b *testing.B) { benchExperiment(b, "fig4c") }
func BenchmarkTable3Flash(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkFig5Unified(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig5AltBaselines(b *testing.B) { benchExperiment(b, "fig5alt") }
func BenchmarkRackPower(b *testing.B)        { benchExperiment(b, "rackpower") }

// Ablation benches (design choices DESIGN.md calls out).

func BenchmarkAblActivityFactor(b *testing.B) { benchExperiment(b, "abl-activity") }
func BenchmarkAblTariff(b *testing.B)         { benchExperiment(b, "abl-tariff") }
func BenchmarkAblPolicy(b *testing.B)         { benchExperiment(b, "abl-policy") }
func BenchmarkAblCBF(b *testing.B)            { benchExperiment(b, "abl-cbf") }
func BenchmarkAblFlashSize(b *testing.B)      { benchExperiment(b, "abl-flash") }
func BenchmarkAblCooling(b *testing.B)        { benchExperiment(b, "abl-cooling") }
func BenchmarkAblQueryCache(b *testing.B)     { benchExperiment(b, "abl-querycache") }
func BenchmarkAblLocality(b *testing.B)       { benchExperiment(b, "abl-locality") }

// §4 extension benches.

func BenchmarkExtMemtech(b *testing.B)   { benchExperiment(b, "ext-memtech") }
func BenchmarkExtFlashdisk(b *testing.B) { benchExperiment(b, "ext-flashdisk") }
func BenchmarkExtScaleout(b *testing.B)  { benchExperiment(b, "ext-scaleout") }
func BenchmarkExtDiurnal(b *testing.B)   { benchExperiment(b, "ext-diurnal") }
func BenchmarkExtHybrid(b *testing.B)    { benchExperiment(b, "ext-hybrid") }

// --- workload-engine micro-benchmarks -----------------------------------

func BenchmarkSearchQuery(b *testing.B) {
	ix, err := websearch.Build(websearch.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := ix.NewQuery(r)
		ix.Search(q, 10)
	}
}

func BenchmarkMapReduceWordCount(b *testing.B) {
	cfg := mapreduce.DefaultCorpusConfig()
	cfg.TotalBytes = 1 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := mapreduce.NewDFS(mapreduce.DefaultDFSConfig(), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := mapreduce.GenerateCorpus(d, "c", cfg); err != nil {
			b.Fatal(err)
		}
		if _, err := mapreduce.Run(d, mapreduce.WordCountJob("c", "out")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageTraceCollect(b *testing.B) {
	sp, err := trace.NewSyntheticPages(1<<18, 0.9, 20, 0.25, 5)
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace.CollectPages(sp, r, 10)
	}
}

func BenchmarkExtEnsemble(b *testing.B)   { benchExperiment(b, "ext-ensemble") }
func BenchmarkAblRealEstate(b *testing.B) { benchExperiment(b, "abl-realestate") }

func BenchmarkValidate(b *testing.B) { benchExperiment(b, "validate") }

func BenchmarkAblCoolingCredit(b *testing.B) { benchExperiment(b, "abl-coolingcredit") }
func BenchmarkExtPowerProv(b *testing.B)     { benchExperiment(b, "ext-powerprov") }

func BenchmarkExtFabric(b *testing.B)       { benchExperiment(b, "ext-fabric") }
func BenchmarkExtAvailability(b *testing.B) { benchExperiment(b, "ext-availability") }

func BenchmarkExtDatacenter(b *testing.B) { benchExperiment(b, "ext-datacenter") }

func BenchmarkExtCritpath(b *testing.B) { benchExperiment(b, "ext-critpath") }

func BenchmarkExtFleet(b *testing.B) { benchExperiment(b, "ext-fleet") }
