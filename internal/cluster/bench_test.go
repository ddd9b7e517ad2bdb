package cluster

import (
	"testing"

	"warehousesim/internal/benchgate"
	"warehousesim/internal/obs"
	"warehousesim/internal/platform"
	"warehousesim/internal/workload"
)

func BenchmarkAnalyticSolve(b *testing.B) {
	cfg := Config{Server: platform.Emb1()}
	p := workload.WebsearchProfile()
	solve := func() {
		if _, err := cfg.Analyze(p); err != nil {
			b.Fatal(err)
		}
	}
	solve() // one-time package setup stays out of the figures
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}

// benchDESTrial times one adaptive flat trial at an observability
// level: plain, obs (a fresh sink per trial) or traced (obs plus a
// span for every request). An untraced request allocates nothing, so
// the plain row must not move when tracing code evolves.
func benchDESTrial(b *testing.B, mode string) {
	cfg := Config{Server: platform.Desk()}
	gen := workload.FixedGenerator{P: workload.WebsearchProfile()}
	trial := func() {
		opts := SimOptions{Seed: 1, WarmupSec: 5, MeasureSec: 20, MaxClients: 64}
		switch mode {
		case "obs":
			opts.Obs = obs.NewSink()
		case "traced":
			opts.Obs = obs.NewSink()
			opts.TraceEvery = 1
		}
		if _, err := cfg.Simulate(gen, opts); err != nil {
			b.Fatal(err)
		}
	}
	trial()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial()
	}
}

func BenchmarkDESTrial(b *testing.B)       { benchDESTrial(b, "plain") }
func BenchmarkDESTrialObs(b *testing.B)    { benchDESTrial(b, "obs") }
func BenchmarkDESTrialTraced(b *testing.B) { benchDESTrial(b, "traced") }

// benchShardedTrial times one 64-board rack run (16 enclosures x 4
// boards) on the sharded kernel. Results are byte-identical at every
// shard count, so the 1-shard row is the single-heap baseline and the
// others show what conservative synchronization costs.
func benchShardedTrial(b *testing.B, shards int) {
	cfg := Config{Server: platform.Desk()}
	gen := workload.FixedGenerator{P: workload.WebsearchProfile()}
	trial := func() {
		opts := SimOptions{
			Seed: 1, WarmupSec: 2, MeasureSec: 10, MaxClients: 512,
			Topology: &ShardedTopology{Enclosures: 16, BoardsPerEnclosure: 4, Shards: shards},
		}
		if _, err := cfg.Simulate(gen, opts); err != nil {
			b.Fatal(err)
		}
	}
	trial()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial()
	}
}

func BenchmarkShardedTrial(b *testing.B)  { benchShardedTrial(b, 1) }
func BenchmarkShardedTrial2(b *testing.B) { benchShardedTrial(b, 2) }
func BenchmarkShardedTrial4(b *testing.B) { benchShardedTrial(b, 4) }
func BenchmarkShardedTrial8(b *testing.B) { benchShardedTrial(b, 8) }

// TestAllocBounds gates the trial benchmarks' allocation figures (see
// benchgate for how a bound is set).
func TestAllocBounds(t *testing.T) {
	benchgate.Check(t, []benchgate.Row{
		{Name: "AnalyticSolve", Bench: BenchmarkAnalyticSolve, MaxBytes: 448, MaxAllocs: 5},
		{Name: "DESTrial", Bench: BenchmarkDESTrial, MaxBytes: 19133, MaxAllocs: 295},
		{Name: "DESTrialObs", Bench: BenchmarkDESTrialObs, MaxBytes: 101700, MaxAllocs: 567},
		{Name: "DESTrialTraced", Bench: BenchmarkDESTrialTraced, MaxBytes: 834755, MaxAllocs: 580},
		{Name: "ShardedTrial", Bench: BenchmarkShardedTrial, MaxBytes: 208582, MaxAllocs: 3590},
		{Name: "ShardedTrial2", Bench: BenchmarkShardedTrial2, MaxBytes: 209474, MaxAllocs: 3645},
		{Name: "ShardedTrial4", Bench: BenchmarkShardedTrial4, MaxBytes: 221511, MaxAllocs: 3774},
		{Name: "ShardedTrial8", Bench: BenchmarkShardedTrial8, MaxBytes: 249331, MaxAllocs: 4063},
	})
}
