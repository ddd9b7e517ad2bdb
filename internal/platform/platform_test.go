package platform

import (
	"math"
	"testing"
	"testing/quick"
)

// Paper Table 2 / Figure 1(a) pins: per-server hardware price (without
// switch share) and maximum power must match the published numbers.
func TestCatalogMatchesPaper(t *testing.T) {
	cases := []struct {
		srv       Server
		wantPrice float64
		wantWatt  float64
		wantCores int
	}{
		{Srvr1(), 3225, 340, 8},
		{Srvr2(), 1620, 215, 4},
		{Desk(), 780, 135, 2},
		{Mobl(), 920, 78, 2},
		{Emb1(), 430, 52, 2},
		{Emb2(), 310, 35, 1},
	}
	for _, c := range cases {
		if got := c.srv.HardwarePriceUSD(); math.Abs(got-c.wantPrice) > 0.01 {
			t.Errorf("%s hardware price = $%g, paper $%g", c.srv.Name, got, c.wantPrice)
		}
		if got := c.srv.MaxPowerW(); math.Abs(got-c.wantWatt) > 0.01 {
			t.Errorf("%s power = %gW, paper %gW", c.srv.Name, got, c.wantWatt)
		}
		if got := c.srv.CPU.Cores(); got != c.wantCores {
			t.Errorf("%s cores = %d, want %d", c.srv.Name, got, c.wantCores)
		}
	}
}

// Table 2 "Inf-$" includes the rack switch share: hardware + 2750/40.
func TestInfCostWithSwitchShareMatchesTable2(t *testing.T) {
	rack := DefaultRack()
	wants := map[string]float64{
		"srvr1": 3294, "srvr2": 1689, "desk": 849,
		"mobl": 989, "emb1": 499, "emb2": 379,
	}
	for _, s := range All() {
		got := s.HardwarePriceUSD() + rack.SwitchPricePerServer()
		if math.Abs(got-wants[s.Name]) > 1 {
			t.Errorf("%s Inf-$ = %g, Table 2 says %g", s.Name, got, wants[s.Name])
		}
	}
}

func TestAllValidate(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestValidateCatchesBadServers(t *testing.T) {
	good := Srvr2()
	bads := []func(*Server){
		func(s *Server) { s.Name = "" },
		func(s *Server) { s.CPU.CoresPerSocket = 0 },
		func(s *Server) { s.CPU.FreqGHz = 0 },
		func(s *Server) { s.Memory.CapacityGB = 0 },
		func(s *Server) { s.Disk.BandwidthMBps = 0 },
		func(s *Server) { s.NIC.Gbps = 0 },
	}
	for i, mutate := range bads {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
}

func TestByName(t *testing.T) {
	s, ok := ByName("emb1")
	if !ok || s.Name != "emb1" {
		t.Fatalf("ByName(emb1) = %v, %v", s.Name, ok)
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Fatal("ByName found a platform that does not exist")
	}
}

func TestCoreSpeedOrdering(t *testing.T) {
	// For any cache-resident working set, per-core speed must follow the
	// platform hierarchy: srvr >= desk > mobl > emb1 > emb2.
	ws, mp := 4.0, 1.5
	speeds := map[string]float64{}
	for _, s := range All() {
		speeds[s.Name] = s.CPU.CoreSpeed(ws, mp)
	}
	order := []string{"srvr1", "desk", "mobl", "emb1", "emb2"}
	for i := 0; i+1 < len(order); i++ {
		if speeds[order[i]] <= speeds[order[i+1]] {
			t.Errorf("core speed %s (%g) <= %s (%g)", order[i], speeds[order[i]],
				order[i+1], speeds[order[i+1]])
		}
	}
	if speeds["srvr1"] != speeds["srvr2"] {
		t.Errorf("srvr1 and srvr2 cores should be identical: %g vs %g",
			speeds["srvr1"], speeds["srvr2"])
	}
}

func TestCoreSpeedCacheSensitivity(t *testing.T) {
	c := Desk().CPU
	if s0 := c.CoreSpeed(0, 2); math.Abs(s0-c.FreqGHz) > 1e-12 {
		t.Errorf("zero working set should run at full frequency: %g", s0)
	}
	small := c.CoreSpeed(0.5, 2)
	large := c.CoreSpeed(16, 2)
	if large >= small {
		t.Errorf("larger working set should be slower: %g vs %g", large, small)
	}
}

func TestInOrderPenalty(t *testing.T) {
	e2 := Emb2().CPU
	oo := e2
	oo.OutOfOrder = true
	if e2.CoreSpeed(1, 1) >= oo.CoreSpeed(1, 1) {
		t.Error("in-order core not slower than out-of-order twin")
	}
}

func TestDiskAccessTime(t *testing.T) {
	d := Disk72kDesktop()
	// One positioning delay plus the transfer, the service time the
	// storage models charge: 4 ms + 7 MB / 70 MB/s = 4 ms + 100 ms.
	got := d.AvgAccessMs/1e3 + 7e6/(d.BandwidthMBps*1e6)
	want := 0.004 + 0.1
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("access time = %g, want %g", got, want)
	}
}

func TestDiskCatalogMatchesTable3(t *testing.T) {
	lap := DiskLaptop()
	if lap.BandwidthMBps != 20 || lap.AvgAccessMs != 15 || lap.PowerW != 2 || lap.PriceUSD != 80 || !lap.Remote {
		t.Errorf("laptop disk does not match Table 3a: %+v", lap)
	}
	lap2 := DiskLaptop2()
	if lap2.PriceUSD != 40 || lap2.BandwidthMBps != lap.BandwidthMBps {
		t.Errorf("laptop-2 disk does not match Table 3a: %+v", lap2)
	}
	dsk := Disk72kDesktop()
	if dsk.BandwidthMBps != 70 || dsk.AvgAccessMs != 4 || dsk.PowerW != 10 || dsk.PriceUSD != 120 || dsk.Remote {
		t.Errorf("desktop disk does not match Table 3a: %+v", dsk)
	}
}

func TestFlashMatchesTable3(t *testing.T) {
	f := FlashCacheDevice()
	if f.ReadUs != 20 || f.WriteUs != 200 || f.EraseMs != 1.2 ||
		f.BandwidthMBps != 50 || f.CapacityGB != 1 || f.PowerW != 0.5 || f.PriceUSD != 14 {
		t.Errorf("flash does not match Table 3a: %+v", f)
	}
	// 4KB read: 20 µs + 4096/50e6 s ≈ 102 µs.
	got := f.ReadUs/1e6 + 4096/(f.BandwidthMBps*1e6)
	want := 20e-6 + 4096/50e6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("flash 4K read = %g, want %g", got, want)
	}
	if f.WriteUs <= f.ReadUs {
		t.Error("flash writes should be slower than reads")
	}
}

func TestFlashAddsToServerBoM(t *testing.T) {
	s := Emb1()
	base := s.HardwarePriceUSD()
	basePwr := s.MaxPowerW()
	fl := FlashCacheDevice()
	s.Flash = &fl
	if got := s.HardwarePriceUSD(); math.Abs(got-(base+14)) > 1e-9 {
		t.Errorf("flash price not added: %g", got)
	}
	if got := s.MaxPowerW(); math.Abs(got-(basePwr+0.5)) > 1e-9 {
		t.Errorf("flash power not added: %g", got)
	}
}

func TestNICBandwidth(t *testing.T) {
	n := NIC{Gbps: 1}
	if got := n.BytesPerSec(); got != 125e6 {
		t.Errorf("1 Gbps = %g B/s", got)
	}
}

func TestRackAmortization(t *testing.T) {
	r := DefaultRack()
	if got := r.SwitchPricePerServer(); math.Abs(got-68.75) > 1e-9 {
		t.Errorf("switch price per server = %g", got)
	}
	if got := r.SwitchPowerPerServerW(); math.Abs(got-1) > 1e-9 {
		t.Errorf("switch power per server = %g", got)
	}
}

// Property: CoreSpeed is monotone non-increasing in working-set size and
// in miss penalty for every cataloged CPU.
func TestQuickCoreSpeedMonotone(t *testing.T) {
	cpus := make([]CPU, 0, 6)
	for _, s := range All() {
		cpus = append(cpus, s.CPU)
	}
	f := func(wsA, wsB, mp float64) bool {
		ws1 := math.Abs(wsA)
		ws2 := ws1 + math.Abs(wsB)
		p := math.Mod(math.Abs(mp), 4)
		for _, c := range cpus {
			if c.CoreSpeed(ws2, p) > c.CoreSpeed(ws1, p)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
