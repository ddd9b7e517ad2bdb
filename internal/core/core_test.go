package core

import (
	"math"
	"testing"

	"warehousesim/internal/cooling"
	"warehousesim/internal/cost"
	"warehousesim/internal/memblade"
	"warehousesim/internal/metrics"
	"warehousesim/internal/platform"
	"warehousesim/internal/workload"
)

func TestBaselineDesignsResolveToCatalog(t *testing.T) {
	for _, d := range AllBaselines() {
		r, err := d.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		orig, _ := platform.ByName(d.Name)
		if r.Server.HardwarePriceUSD() != orig.HardwarePriceUSD() {
			t.Errorf("%s: baseline resolve changed price", d.Name)
		}
		if r.Server.MaxPowerW() != orig.MaxPowerW() {
			t.Errorf("%s: baseline resolve changed power", d.Name)
		}
		if r.Density != 40 {
			t.Errorf("%s: baseline density %d", d.Name, r.Density)
		}
	}
}

func TestDesignValidate(t *testing.T) {
	d := NewN1()
	d.Name = ""
	if d.Validate() == nil {
		t.Error("unnamed design accepted")
	}
	d = NewN2()
	d.Memory.RemoteDiscount = 1.5
	if d.Validate() == nil {
		t.Error("invalid memory scheme accepted")
	}
}

func TestN1Resolution(t *testing.T) {
	r, err := NewN1().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	base := platform.Mobl()
	if r.Server.FanPowerW >= base.FanPowerW {
		t.Errorf("dual-entry fans (%gW) not below 1U fans (%gW)",
			r.Server.FanPowerW, base.FanPowerW)
	}
	if r.Density != 320 {
		t.Errorf("N1 density = %d, paper says 320 blades/rack", r.Density)
	}
	if r.CoolingEfficiency < 1.8 {
		t.Errorf("N1 cooling efficiency = %g", r.CoolingEfficiency)
	}
	// Memory and disk untouched.
	if r.Server.Memory != base.Memory || r.Server.Disk != base.Disk {
		t.Error("N1 changed memory or disk")
	}
}

func TestN2Resolution(t *testing.T) {
	r, err := NewN2().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	base := platform.Emb1()
	if r.Server.Disk.Name != "laptop-san" || !r.Server.Disk.Remote {
		t.Errorf("N2 disk = %+v, want remote laptop", r.Server.Disk)
	}
	if r.Server.Flash == nil {
		t.Fatal("N2 lacks flash cache")
	}
	if r.Server.Memory.PriceUSD >= base.Memory.PriceUSD {
		t.Error("N2 memory sharing did not cut memory cost")
	}
	if r.Server.Memory.PowerW >= base.Memory.PowerW {
		t.Error("N2 memory sharing did not cut memory power")
	}
	if r.Density != 1250 {
		t.Errorf("N2 density = %d, paper says 1250 systems/rack", r.Density)
	}
	if r.Server.MaxPowerW() >= base.MaxPowerW() {
		t.Errorf("N2 power %gW not below emb1 %gW", r.Server.MaxPowerW(), base.MaxPowerW())
	}
}

func TestRackScalesWithDensity(t *testing.T) {
	r, err := NewN2().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// Per-server switch share stays constant when ports scale with
	// density.
	if math.Abs(r.Rack.SwitchPricePerServer()-2750.0/40) > 1e-9 {
		t.Errorf("switch share per server = %g", r.Rack.SwitchPricePerServer())
	}
	if r.Rack.ServersPerRack != 1250 {
		t.Errorf("rack holds %d", r.Rack.ServersPerRack)
	}
}

func TestStorageKindStrings(t *testing.T) {
	want := map[StorageKind]string{
		LocalDiskStorage:          "local-disk",
		RemoteLaptopStorage:       "remote-laptop",
		RemoteLaptopFlashStorage:  "remote-laptop+flash",
		RemoteLaptop2FlashStorage: "remote-laptop2+flash",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestEvaluateProducesFullSuite(t *testing.T) {
	ev := NewEvaluator()
	tbl, err := ev.EvaluateSuite([]Design{BaselineDesign(platform.Srvr1()), NewN1(), NewN2()})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tbl.Rows()); got != 3*5 {
		t.Fatalf("rows = %d, want 15", got)
	}
	for _, m := range tbl.Rows() {
		if m.Perf <= 0 || m.TCOUSD <= 0 || m.PowerW <= 0 {
			t.Errorf("degenerate measurement %+v", m)
		}
	}
}

// The headline result (§3.6 / abstract): N1 and N2 deliver large
// Perf/TCO-$ gains on ytube and mapreduce, with N2 ahead of N1, and a
// suite-level harmonic-mean improvement of roughly 1.5-2X.
func TestUnifiedDesignsBeatBaseline(t *testing.T) {
	ev := NewEvaluator()
	tbl, err := ev.EvaluateSuite([]Design{BaselineDesign(platform.Srvr1()), NewN1(), NewN2()})
	if err != nil {
		t.Fatal(err)
	}
	rel := tbl.Relative(metrics.PerfPerTCO, "srvr1")
	for _, w := range []string{"ytube", "mapred-wc", "mapred-wr"} {
		if rel[w]["N1"] < 1.5 {
			t.Errorf("%s: N1 Perf/TCO = %.2fx, expected >= 1.5x", w, rel[w]["N1"])
		}
		if rel[w]["N2"] < 2.5 {
			t.Errorf("%s: N2 Perf/TCO = %.2fx, expected >= 2.5x", w, rel[w]["N2"])
		}
		if rel[w]["N2"] <= rel[w]["N1"] {
			t.Errorf("%s: N2 (%.2fx) not ahead of N1 (%.2fx)", w, rel[w]["N2"], rel[w]["N1"])
		}
	}
	hm := tbl.HMeanRelative(metrics.PerfPerTCO, "srvr1")
	if hm["N1"] < 1.2 || hm["N1"] > 3 {
		t.Errorf("N1 suite hmean = %.2fx, paper ~1.5x", hm["N1"])
	}
	if hm["N2"] < 1.5 || hm["N2"] > 4 {
		t.Errorf("N2 suite hmean = %.2fx, paper ~2x", hm["N2"])
	}
	if hm["N2"] <= hm["N1"] {
		t.Errorf("N2 hmean (%.2f) not ahead of N1 (%.2f)", hm["N2"], hm["N1"])
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	run := func() []metrics.Measurement {
		ev := NewEvaluator()
		ms, err := ev.Evaluate(NewN2(), workload.SuiteProfiles())
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic evaluation at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFlashHitRatesPlausible(t *testing.T) {
	// Table 3 and Figure 5 print from these rates, so a change to the
	// cache or the disk traces that moves any bit must show here.
	want := map[string]uint64{
		"websearch": 0x3fe612596aa95fda, // 0.689739902804827
		"webmail":   0x3fdf60c6b89a985c, // 0.49028175380442973
		"ytube":     0x3feb96eb46cc7606, // 0.862172735479988
		"mapred-wc": 0x3fe03ba0360e49cc, // 0.5072785430696114
		"mapred-wr": 0x3fd913aa9c52b32f, // 0.3918253447143795
	}
	ev := NewEvaluator()
	for _, p := range workload.SuiteProfiles() {
		hr, err := ev.flashHitRate(p)
		if err != nil {
			t.Fatal(err)
		}
		if hr < 0 || hr > 1 {
			t.Fatalf("%s: hit rate %g", p.Name, hr)
		}
		if got, ok := want[p.Name]; !ok || math.Float64bits(hr) != got {
			t.Errorf("%s: hit rate %v (%#x), want %v (%#x)",
				p.Name, hr, math.Float64bits(hr), math.Float64frombits(want[p.Name]), want[p.Name])
		}
	}
	// Cached: second call must not re-simulate (same value, fast).
	p := workload.WebsearchProfile()
	a, _ := ev.flashHitRate(p)
	b, _ := ev.flashHitRate(p)
	if a != b {
		t.Error("hit rate cache inconsistent")
	}
}

func TestMemorySchemeFeedsSlowdown(t *testing.T) {
	ev := NewEvaluator()
	withMem := NewN2()
	noMem := NewN2()
	noMem.Name = "N2-nomem"
	noMem.Memory = nil

	p := []workload.Profile{workload.YtubeProfile()}
	a, err := ev.Evaluate(withMem, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Evaluate(noMem, p)
	if err != nil {
		t.Fatal(err)
	}
	// Memory sharing costs ~2% perf but cuts dollars; check both moved
	// in the expected directions.
	if a[0].Perf >= b[0].Perf {
		t.Errorf("memory slowdown did not reduce perf: %g vs %g", a[0].Perf, b[0].Perf)
	}
	if a[0].TCOUSD >= b[0].TCOUSD {
		t.Errorf("memory sharing did not cut TCO: %g vs %g", a[0].TCOUSD, b[0].TCOUSD)
	}
}

func TestResolveRejectsInvalidMemoryScheme(t *testing.T) {
	d := NewN2()
	bad := memblade.Scheme{Name: "bad", LocalFraction: 0, RemoteFraction: 1}
	d.Memory = &bad
	if _, err := d.Resolve(); err == nil {
		t.Error("invalid scheme resolved")
	}
}

func TestServerTCOConsistentWithCostModel(t *testing.T) {
	r, err := NewN1().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	m := cost.DefaultModel()
	inf, pc, tot := r.ServerTCO(m)
	if math.Abs(inf+pc-tot) > 1e-9 || inf <= 0 || pc <= 0 {
		t.Errorf("TCO triple inconsistent: %g + %g != %g", inf, pc, tot)
	}
}

func TestRackFor(t *testing.T) {
	rack, err := RackFor(NewN1())
	if err != nil {
		t.Fatal(err)
	}
	if rack.ServersPerRack != 320 {
		t.Errorf("N1 rack = %d", rack.ServersPerRack)
	}
	if _, err := RackFor(Design{}); err == nil {
		t.Error("empty design accepted")
	}
}

func TestClusterConfigExposesStorage(t *testing.T) {
	ev := NewEvaluator()
	cfg, err := ev.ClusterConfig(NewN2(), workload.YtubeProfile())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Storage == nil {
		t.Fatal("N2 cluster config lost its storage subsystem")
	}
	if cfg.MemSlowdown != NewN2().Memory.AssumedSlowdown {
		t.Errorf("memory slowdown not carried: %g", cfg.MemSlowdown)
	}
	// Baselines keep the local disk (nil storage override).
	cfg, err = ev.ClusterConfig(BaselineDesign(platform.Desk()), workload.YtubeProfile())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Storage != nil {
		t.Error("baseline should use the local disk")
	}
	if _, err := ev.ClusterConfig(Design{}, workload.YtubeProfile()); err == nil {
		t.Error("invalid design accepted")
	}
}

func TestFlashSSDStorageResolution(t *testing.T) {
	d := BaselineDesign(platform.Emb1())
	d.Name = "emb1-ssd"
	d.Storage = FlashSSDStorage
	r, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Server.Disk.Name != "flash-ssd" {
		t.Errorf("disk = %+v", r.Server.Disk)
	}
	ssd := platform.FlashSSD()
	if r.Server.Disk.PriceUSD != ssd.PriceUSD || r.Server.Disk.PowerW != ssd.PowerW {
		t.Error("SSD economics not carried into the BoM")
	}
	// Evaluation must route through the flash-only storage path and
	// boost the IO-bound benchmark.
	ev := NewEvaluator()
	tbl, err := ev.EvaluateSuite([]Design{BaselineDesign(platform.Emb1()), d})
	if err != nil {
		t.Fatal(err)
	}
	rel := tbl.Relative(metrics.Perf, "emb1")
	if rel["ytube"]["emb1-ssd"] < 1.5 {
		t.Errorf("SSD did not unbind ytube: %.2fx", rel["ytube"]["emb1-ssd"])
	}
	// And the BoM must be pricier than the desktop disk baseline.
	base, _ := tbl.Get("ytube", "emb1")
	withSSD, _ := tbl.Get("ytube", "emb1-ssd")
	if withSSD.InfUSD <= base.InfUSD {
		t.Error("SSD should raise infrastructure cost")
	}
}

func TestConventionalEnclosureKeepsCatalogFans(t *testing.T) {
	d := BaselineDesign(platform.Srvr1())
	d.Enclosure = cooling.Conventional
	r, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Server.FanPowerW != platform.Srvr1().FanPowerW {
		t.Errorf("conventional resolve changed fan power to %g", r.Server.FanPowerW)
	}
}

// BenchmarkN2ClusterConfig lowers N2 onto the five suite profiles with a
// fresh evaluator per iteration, so every flash hit-rate replay (working
// set build plus 1 GB cache replay) is paid in full.
func BenchmarkN2ClusterConfig(b *testing.B) {
	b.ReportAllocs()
	profiles := workload.SuiteProfiles()
	for i := 0; i < b.N; i++ {
		ev := NewEvaluator()
		for _, p := range profiles {
			if _, err := ev.ClusterConfig(NewN2(), p); err != nil {
				b.Fatal(err)
			}
		}
	}
}
