package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"warehousesim/internal/obs"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/platform"
	"warehousesim/internal/workload"
)

// TestPinnedTracedExports pins the exact trajectories of traced
// fixed-seed runs on both engines, interactive and batch, each with a
// remote-memory slowdown so the swap share (flat) and the blade stage
// (rack) run. The digests cover the whole obs export, the Perfetto
// trace and the attribution CSV; any change to the station pipeline
// that moves a Submit, a Post, an RNG draw or a recorder emission moves
// at least one of them.
func TestPinnedTracedExports(t *testing.T) {
	batch := workload.MapReduceWCProfile()
	batch.JobRequests = 200
	cfg := Config{Server: platform.Desk(), MemSlowdown: 0.2}
	rack := &ShardedTopology{Enclosures: 2, BoardsPerEnclosure: 2, Shards: 2}
	cases := []struct {
		name             string
		p                workload.Profile
		topo             *ShardedTopology
		obs, trace, attr string
	}{
		{"flat/interactive", workload.WebsearchProfile(), nil,
			"2b8188af2148e0c68f9c1b7622c0f658c28c101f1d00d3dd7f6f81ae6d139b41",
			"98b1ffab980fd221c4fd0ae06107f41a21cdf5d3eeeaa619959912eeb26acae2",
			"15014193424ceb59e4601a4795189a025129c392baff753eef220b560308b211"},
		{"flat/batch", batch, nil,
			"b0816ab96fd79d6f948095646ef343f1462551d022f6553dba89085d9f5dfa77",
			"68593735cdb8c511cba2c0516fe4b352165081c2043e328347198d766b72f3fa",
			"88a67d7cad7ade7ef464f030f7983376f284f79fa37664a580351d775b9447b3"},
		{"rack/interactive", workload.WebsearchProfile(), rack,
			"6263ffbbd96ddd72420957d8583962a318ba672e66c4622c1cb03772a96b9031",
			"4f42db412e19f8448fa0aa1f13783df81ede036bc5318537dda05064b620b3de",
			"bb84a24e65d96fcd1642c00a9810ae5e3b877c8c9bdbdefa4a6d8231b94c4e3a"},
		{"rack/batch", batch, rack,
			"31d23a523d7cabd4185179d9167a6ba2ad85d77e42ff113bd16f25c798eccc26",
			"5f18fbd245a5ff49a7ecd11fc6605f0abfb2b5f9b7008391c35bd6688eacc5b6",
			"44150a47fe7dfeb1bacf5592307a078fb526c2e41fcf5ccf9a54bed5d2a8fd5f"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sink := obs.NewSink()
			opt := tracedTestOptions(sink, 3)
			if c.topo != nil {
				opt.Topology = c.topo
			}
			if _, err := cfg.Simulate(workload.FixedGenerator{P: c.p}, opt); err != nil {
				t.Fatal(err)
			}
			if sink.EventCount("span") == 0 {
				t.Fatal("traced run recorded no spans")
			}
			for _, d := range []struct {
				name, want string
				write      func(io.Writer) error
			}{
				{"obs export", c.obs, sink.WriteJSONL},
				{"Perfetto trace", c.trace, func(w io.Writer) error { return span.WriteTrace(w, sink) }},
				{"attribution CSV", c.attr, span.Analyze(sink.Events()).WriteCSV},
			} {
				h := sha256.New()
				if err := d.write(h); err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != d.want {
					t.Errorf("%s sha256 = %s, want %s", d.name, got, d.want)
				}
			}
		})
	}
}
