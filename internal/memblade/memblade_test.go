package memblade

import (
	"math"
	"testing"
	"testing/quick"

	"warehousesim/internal/platform"
	"warehousesim/internal/stats"
	"warehousesim/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{FootprintPages: 100, LocalFraction: 0.25}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"zero footprint", Config{FootprintPages: 0, LocalFraction: 0.25}},
		{"zero local fraction", Config{FootprintPages: 10, LocalFraction: 0}},
		{"local fraction > 1", Config{FootprintPages: 10, LocalFraction: 1.5}},
		{"NaN local fraction", Config{FootprintPages: 10, LocalFraction: math.NaN()}},
		{"unknown policy", Config{FootprintPages: 10, LocalFraction: 0.5, Policy: Clock + 1}},
		{"negative policy", Config{FootprintPages: 10, LocalFraction: 0.5, Policy: -1}},
	} {
		if c.cfg.Validate() == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestCapacity(t *testing.T) {
	s, err := New(Config{FootprintPages: 1000, LocalFraction: 0.25, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	if s.Capacity() != 250 {
		t.Errorf("capacity = %d, want 250", s.Capacity())
	}
}

// TestHugeFootprint builds a simulator whose local memory could hold
// 2^48 pages: the residency table grows with the pages a replay touches,
// not with the capacity.
func TestHugeFootprint(t *testing.T) {
	for _, pol := range []Policy{LRU, Random, Clock} {
		s, err := New(Config{FootprintPages: 1 << 50, LocalFraction: 0.25, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		if s.Capacity() != 1<<48 {
			t.Errorf("%v: capacity = %d, want 2^48", pol, s.Capacity())
		}
		if s.Access(1<<49, true) || !s.Access(1<<49, false) {
			t.Errorf("%v: page not resident after its miss", pol)
		}
	}
}

func TestLRUBehaviour(t *testing.T) {
	s, err := New(Config{FootprintPages: 8, LocalFraction: 0.25, Policy: LRU}) // capacity 2
	if err != nil {
		t.Fatal(err)
	}
	if s.Access(1, false) {
		t.Error("cold access hit")
	}
	s.Access(2, false)
	if !s.Access(1, false) {
		t.Error("resident page missed")
	}
	// Access order now 1,2 (1 most recent). Inserting 3 evicts 2.
	s.Access(3, false)
	if s.Access(2, false) {
		t.Error("LRU kept the least-recently-used page")
	}
	// Resident now {1,3} with 1 least recent, so the miss on 2
	// evicted 1.
	if s.Access(1, false) {
		t.Error("LRU kept page 1 after the miss on 2 made it least recent")
	}
}

func TestLRUFullWorkingSetNeverMisses(t *testing.T) {
	s, err := New(Config{FootprintPages: 100, LocalFraction: 1.0, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for p := int64(0); p < 100; p++ {
			s.Access(p, false)
		}
	}
	if got := s.stats.Misses; got != 100 {
		t.Errorf("misses = %d, want 100 (cold only)", got)
	}
}

func TestPoliciesMissRateOrdering(t *testing.T) {
	// On a Zipf trace, LRU should not lose badly to Random; Clock lands
	// between them (the paper's expectation for implementable policies).
	sp, err := trace.NewSyntheticPages(20000, 0.9, 20, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(2)
	tr := trace.CollectPages(sp, r, 3000)

	rates := map[Policy]float64{}
	for _, pol := range []Policy{LRU, Random, Clock} {
		s, err := New(Config{FootprintPages: 20000, LocalFraction: 0.25, Policy: pol, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		st := Replay(s, tr)
		rates[pol] = st.MissRate()
		if st.Accesses == 0 || st.MissRate() <= 0 || st.MissRate() >= 1 {
			t.Fatalf("%v: degenerate miss rate %g", pol, st.MissRate())
		}
	}
	if rates[LRU] > rates[Random]*1.1 {
		t.Errorf("LRU (%.3f) much worse than Random (%.3f)", rates[LRU], rates[Random])
	}
	if rates[Clock] > rates[Random]*1.15 {
		t.Errorf("Clock (%.3f) much worse than Random (%.3f)", rates[Clock], rates[Random])
	}
}

func TestSmallerLocalMemoryMissesMore(t *testing.T) {
	sp, err := trace.NewSyntheticPages(10000, 0.85, 15, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5)
	tr := trace.CollectPages(sp, r, 2000)

	miss := func(frac float64) float64 {
		s, err := New(Config{FootprintPages: 10000, LocalFraction: frac, Policy: Random, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		return Replay(s, tr).MissRate()
	}
	m25, m125 := miss(0.25), miss(0.125)
	if m125 <= m25 {
		t.Errorf("12.5%% local (%.3f) should miss more than 25%% (%.3f)", m125, m25)
	}
}

func TestWritebackAccounting(t *testing.T) {
	s, err := New(Config{FootprintPages: 8, LocalFraction: 0.25, Policy: LRU}) // capacity 2
	if err != nil {
		t.Fatal(err)
	}
	s.Access(1, true)  // dirty
	s.Access(2, false) // clean
	s.Access(3, false) // evicts 1 (dirty) -> writeback
	s.Access(4, false) // evicts 2 (clean)
	st := s.stats
	if st.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", st.Writebacks)
	}
}

func TestStatsDerivedValues(t *testing.T) {
	st := Stats{Accesses: 200, Misses: 20, Requests: 10}
	if st.MissRate() != 0.1 {
		t.Errorf("miss rate = %g", st.MissRate())
	}
	if st.MissesPerRequest() != 2 {
		t.Errorf("misses/request = %g", st.MissesPerRequest())
	}
	if (Stats{}).MissRate() != 0 || (Stats{}).MissesPerRequest() != 0 {
		t.Error("empty stats not zero")
	}
}

func TestInterconnectLatencies(t *testing.T) {
	if PCIeX4().StallPerMissSec != 4e-6 {
		t.Errorf("PCIe stall = %g", PCIeX4().StallPerMissSec)
	}
	if CBF().StallPerMissSec != 0.75e-6 {
		t.Errorf("CBF stall = %g", CBF().StallPerMissSec)
	}
}

func TestSlowdownFormula(t *testing.T) {
	st := Stats{Accesses: 1000, Misses: 100, Requests: 100} // 1 miss/request
	sd, err := Slowdown(st, PCIeX4(), 0.001, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 1 * 10 * 4e-6 / 1e-3 = 0.04.
	if math.Abs(sd-0.04) > 1e-12 {
		t.Errorf("slowdown = %g, want 0.04", sd)
	}
	// CBF slashes it by the latency ratio.
	sdCBF, err := Slowdown(st, CBF(), 0.001, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sdCBF/sd-0.75/4) > 1e-9 {
		t.Errorf("CBF ratio = %g, want %g", sdCBF/sd, 0.75/4)
	}
	if _, err := Slowdown(st, PCIeX4(), 0, 1); err == nil {
		t.Error("zero service time accepted")
	}
	if _, err := Slowdown(st, PCIeX4(), 1, 0); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestSchemesMatchPaperParameters(t *testing.T) {
	st := StaticScheme()
	if st.LocalFraction != 0.25 || st.RemoteFraction != 0.75 ||
		st.RemoteDiscount != 0.24 || st.PCIeCostUSD != 10 || st.PCIePowerW != 1.45 ||
		st.AssumedSlowdown != 0.02 {
		t.Errorf("static scheme drifted from §3.4: %+v", st)
	}
	dy := DynamicScheme()
	if dy.RemoteFraction != 0.60 || dy.LocalFraction != 0.25 {
		t.Errorf("dynamic scheme drifted from §3.4: %+v", dy)
	}
	if err := st.Validate(); err != nil {
		t.Error(err)
	}
	if err := dy.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSchemeApply(t *testing.T) {
	base := platform.Emb1()
	mod, err := StaticScheme().Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	// Memory price: 0.25*170 + 0.75*170*0.76 + 10 = 42.5 + 96.9 + 10.
	want := 0.25*170 + 0.75*170*0.76 + 10
	if math.Abs(mod.Memory.PriceUSD-want) > 1e-9 {
		t.Errorf("static memory price = %g, want %g", mod.Memory.PriceUSD, want)
	}
	// Memory power: 0.25*10 + 0.75*10*0.1 + 1.45 = 2.5+0.75+1.45 = 4.7.
	if math.Abs(mod.Memory.PowerW-4.7) > 1e-9 {
		t.Errorf("static memory power = %g, want 4.7", mod.Memory.PowerW)
	}
	if mod.Memory.CapacityGB != base.Memory.CapacityGB {
		t.Errorf("static scheme changed capacity: %g", mod.Memory.CapacityGB)
	}

	dyn, err := DynamicScheme().Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dyn.Memory.CapacityGB-0.85*base.Memory.CapacityGB) > 1e-9 {
		t.Errorf("dynamic capacity = %g, want 85%%", dyn.Memory.CapacityGB)
	}
	if dyn.Memory.PriceUSD >= mod.Memory.PriceUSD {
		t.Error("dynamic should be cheaper than static")
	}

	bad := StaticScheme()
	bad.RemoteDiscount = 1.0
	if _, err := bad.Apply(base); err == nil {
		t.Error("invalid scheme accepted")
	}
}

// Property: for any trace, misses never exceed accesses and resident set
// never exceeds capacity (checked indirectly via full-residency replay).
func TestQuickSimInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		footprint := int64(50 + r.Intn(500))
		frac := 0.1 + 0.8*r.Float64()
		pol := Policy(r.Intn(3))
		s, err := New(Config{FootprintPages: footprint, LocalFraction: frac, Policy: pol, Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			s.Access(r.Int63n(footprint), r.Bool(0.3))
		}
		st := s.stats
		if st.Misses > st.Accesses || st.Writebacks > st.Misses {
			return false
		}
		return s.pages.Len() <= s.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
