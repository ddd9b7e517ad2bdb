package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"warehousesim/internal/obs"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/platform"
	"warehousesim/internal/power"
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
				{"attribution CSV", c.attr, span.Analyze(sink).WriteCSV},
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

// TestPinnedPlaneExports pins the windowed-plane exports of fixed-seed
// flat and rack runs, interactive and batch, with the energy plane's
// window collector shared with the SLO plane (both on) and serving
// energy alone (SLO off). The digests
// cover the obs export and the -slo-out and -energy-out JSONL bodies,
// so any change to how requests and probe samples reach the window
// collectors — which streams, which classes, which windows, in which
// order — moves at least one of them. The rack rows see every resource
// class the energy model reads (cpu, net, memblade, san).
func TestPinnedPlaneExports(t *testing.T) {
	batch := workload.MapReduceWCProfile()
	batch.JobRequests = 200
	cfg := Config{Server: platform.Desk(), MemSlowdown: 0.2}
	rack := &ShardedTopology{Enclosures: 2, BoardsPerEnclosure: 2, Shards: 2}
	cases := []struct {
		name          string
		p             workload.Profile
		topo          *ShardedTopology
		sloSec        float64
		obs, slo, eng string
	}{
		{"flat/interactive/shared", workload.WebsearchProfile(), nil, 1,
			"90c69792ee4777b7be17a2c4656c5d668818627a20efe6769713d7e1fb73911f",
			"769525cf300285659c055a6082942e67429e79a9c175b0aa08cbfd11838c3584",
			"b7e2be2e876d8074adc630af6b8291472c2060129a1dbbcf81ede8f6afc6b189"},
		{"flat/interactive/energy-only", workload.WebsearchProfile(), nil, 0,
			"03bcf4faddf89357be96da435b8382ef65928e3a1fb1d33077185172c152a39c",
			"",
			"b7e2be2e876d8074adc630af6b8291472c2060129a1dbbcf81ede8f6afc6b189"},
		{"flat/batch/shared", batch, nil, 1,
			"c1ff12134dffab10831fec77a1a26f69f2a12650c4a5a011f728d58107e20600",
			"b7d87296771be1cc8dc6a2ef7528999a74cbce98ce27d5f6d9979dd835643791",
			"f41432cb87f95f414a824bb3a04b3ff240fb29780f6b93eee7fb6b0fb16ec34e"},
		{"flat/batch/energy-only", batch, nil, 0,
			"f236fc88997845b45a0269f193ac6c2c08afa913760c816b8d7f90e9ca4ebc12",
			"",
			"f41432cb87f95f414a824bb3a04b3ff240fb29780f6b93eee7fb6b0fb16ec34e"},
		{"rack/interactive/shared", workload.WebsearchProfile(), rack, 1,
			"628ea5ee1dc3a0345d35f5e8c25ff9e2d1f57e8e962084a07ef398f08790d902",
			"aa595717db24b5ce6ad5189eebfc2dd1f75e96f3c4996adefde57ff1631f7fe3",
			"9ded72c08654df2571ca44f654d16068c9d529c3ab9dfabeed9f69e926bafeeb"},
		{"rack/interactive/energy-only", workload.WebsearchProfile(), rack, 0,
			"9a6595f7bf8d21d6c5924bd8fea0175b2d47e755ac7b6e26dd718582b1db78fc",
			"",
			"9ded72c08654df2571ca44f654d16068c9d529c3ab9dfabeed9f69e926bafeeb"},
		{"rack/batch/shared", batch, rack, 1,
			"3314d0ebe63fe8a04eb4ed17878f7c15568f9fbd2bc0d0234486d232a3fbf710",
			"1db3fe8dd00fa98738b8de68d006b9ac85c05a917cb6086016a130aad4648c22",
			"39d4f1cab14a6427636fb737932ae25e38fce8b1cf28c82de81d2fffd643a658"},
		{"rack/batch/energy-only", batch, rack, 0,
			"d307e6415ac5379339770184e8d07c4de9bbf35da51d7703f73b59ecbd8e3415",
			"",
			"39d4f1cab14a6427636fb737932ae25e38fce8b1cf28c82de81d2fffd643a658"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sink := obs.NewSink()
			opt := obsTestOptions(sink)
			if c.topo != nil {
				opt.Topology = c.topo
			}
			opt.SLOWindowSec = c.sloSec
			opt.Energy = testEnergyConfig(1, power.DefaultIdleFractions())
			res, err := cfg.Simulate(workload.FixedGenerator{P: c.p}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if shared := res.SLO != nil && res.Energy.Source() == res.SLO; shared != (c.sloSec > 0) {
				t.Fatalf("energy shares the SLO collector = %v, want %v", shared, c.sloSec > 0)
			}
			exports := []struct {
				name, want string
				write      func(io.Writer) error
			}{
				{"obs export", c.obs, sink.WriteJSONL},
				{"energy export", c.eng, res.Energy.WriteJSONL},
			}
			if res.SLO != nil {
				exports = append(exports, struct {
					name, want string
					write      func(io.Writer) error
				}{"SLO export", c.slo, func(w io.Writer) error { return res.SLO.WriteJSONL(w, res.SLOParts...) }})
			}
			for _, d := range exports {
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
