// Package platform defines the hardware component catalog and the six
// server platforms the paper evaluates (Table 2), together with the
// disk/flash parameter sets of Table 3(a) and rack-level packaging
// constants from Figure 1(a).
//
// Every number that appears in the paper is encoded here verbatim.
// Component breakdowns the paper shows only as stacked bars (Figure 2a/2b
// for desk/mobl/emb1/emb2) are reconstructed so that the per-platform
// totals match Table 2 exactly; DESIGN.md documents this substitution.
package platform

import "fmt"

// CPU describes a processor subsystem: socket count, core count, clock,
// pipeline style and cache sizes, plus its hardware price and maximum
// operational power (both at the whole-CPU-subsystem level, as in the
// paper's cost model).
type CPU struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	FreqGHz        float64
	OutOfOrder     bool
	L1KB           int
	L2MB           float64
	PriceUSD       float64
	PowerW         float64
}

// Cores returns the total core count across sockets.
func (c CPU) Cores() int { return c.Sockets * c.CoresPerSocket }

// InOrderIPCFactor is the throughput handicap of an in-order single-issue
// pipeline relative to the wide out-of-order cores in the server/desktop
// parts, before cache effects. emb2 (Geode/Eden-class) pays this.
const InOrderIPCFactor = 0.45

// CoreSpeed returns the effective per-core execution rate, in units of
// "reference core seconds per second", for a workload whose
// cache-resident working set is wsMB and whose miss sensitivity is
// missPenalty. The model is a standard CPI decomposition:
//
//	rate = freq * ipc / (1 + missPenalty * ws/(ws+L2))
//
// Larger L2 caches capture more of the working set; the residual fraction
// stalls the pipeline in proportion to missPenalty (a per-workload
// calibration constant). The caller normalizes against a reference
// platform so only ratios matter.
func (c CPU) CoreSpeed(wsMB, missPenalty float64) float64 {
	ipc := 1.0
	if !c.OutOfOrder {
		ipc = InOrderIPCFactor
	}
	missFrac := 0.0
	if wsMB > 0 {
		missFrac = wsMB / (wsMB + c.L2MB)
	}
	return c.FreqGHz * ipc / (1 + missPenalty*missFrac)
}

// MemoryTech enumerates the DRAM technologies in the study.
type MemoryTech string

// DRAM technologies used across the six platforms (§3.2).
const (
	FBDIMM MemoryTech = "FB-DIMM"
	DDR2   MemoryTech = "DDR2"
	DDR1   MemoryTech = "DDR1"
)

// Memory describes the DRAM subsystem.
type Memory struct {
	Tech       MemoryTech
	CapacityGB float64
	PriceUSD   float64
	PowerW     float64
}

// Disk describes a rotating disk, either locally attached or reached over
// a basic SATA SAN (§3.5).
type Disk struct {
	Name          string
	BandwidthMBps float64
	AvgAccessMs   float64 // average access (seek+rotate) latency
	CapacityGB    float64
	PowerW        float64
	PriceUSD      float64
	Remote        bool // attached via SAN rather than on-board
}

// Flash describes a NAND flash device used as a disk cache (Table 3a).
type Flash struct {
	ReadUs        float64
	WriteUs       float64
	EraseMs       float64
	BandwidthMBps float64
	CapacityGB    float64
	PowerW        float64
	PriceUSD      float64
	// EnduranceWrites is the per-block write budget before wear-out;
	// current-technology NAND in the paper wears out after 100k writes.
	EnduranceWrites int64
}

// NIC describes the network interface.
type NIC struct {
	Gbps   float64
	PowerW float64 // folded into board power in the paper's model
}

// BytesPerSec returns usable NIC bandwidth in bytes/second.
func (n NIC) BytesPerSec() float64 { return n.Gbps * 1e9 / 8 }

// Server is a complete single-server bill of materials. Board and
// power/fan entries follow the paper's cost-model categories
// ("Board + mgmt", "Power + fans").
type Server struct {
	Name string

	CPU    CPU
	Memory Memory
	Disk   Disk
	NIC    NIC
	// Flash is non-nil when the board carries a flash disk cache (§3.5).
	Flash *Flash

	BoardPriceUSD float64
	BoardPowerW   float64
	FanPriceUSD   float64
	FanPowerW     float64
}

// HardwarePriceUSD returns the per-server hardware cost (excluding
// rack-level switch/enclosure amortization).
func (s Server) HardwarePriceUSD() float64 {
	p := s.CPU.PriceUSD + s.Memory.PriceUSD + s.Disk.PriceUSD +
		s.BoardPriceUSD + s.FanPriceUSD
	if s.Flash != nil {
		p += s.Flash.PriceUSD
	}
	return p
}

// MaxPowerW returns the per-server maximum operational power.
func (s Server) MaxPowerW() float64 {
	w := s.CPU.PowerW + s.Memory.PowerW + s.Disk.PowerW +
		s.BoardPowerW + s.FanPowerW
	if s.Flash != nil {
		w += s.Flash.PowerW
	}
	return w
}

// Validate reports structural problems with a server description.
func (s Server) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("platform: server has no name")
	case s.CPU.Cores() <= 0:
		return fmt.Errorf("platform: %s has no cores", s.Name)
	case s.CPU.FreqGHz <= 0:
		return fmt.Errorf("platform: %s has non-positive frequency", s.Name)
	case s.Memory.CapacityGB <= 0:
		return fmt.Errorf("platform: %s has no memory", s.Name)
	case s.Disk.BandwidthMBps <= 0:
		return fmt.Errorf("platform: %s disk has no bandwidth", s.Name)
	case s.NIC.Gbps <= 0:
		return fmt.Errorf("platform: %s has no NIC", s.Name)
	}
	return nil
}

// Rack describes rack-level packaging: how many servers share one
// rack/enclosure, and the shared switch cost and power (Figure 1a).
type Rack struct {
	Name           string
	ServersPerRack int
	SwitchPriceUSD float64
	SwitchPowerW   float64
}

// SwitchPricePerServer amortizes the switch cost across the rack.
func (r Rack) SwitchPricePerServer() float64 {
	return r.SwitchPriceUSD / float64(r.ServersPerRack)
}

// SwitchPowerPerServerW amortizes the switch power across the rack.
func (r Rack) SwitchPowerPerServerW() float64 {
	return r.SwitchPowerW / float64(r.ServersPerRack)
}

// DefaultRack is the baseline 42U rack with 40 1U "pizza box" servers and
// one shared switch, per Figure 1(a).
func DefaultRack() Rack {
	return Rack{
		Name:           "42U-baseline",
		ServersPerRack: 40,
		SwitchPriceUSD: 2750,
		SwitchPowerW:   40,
	}
}
