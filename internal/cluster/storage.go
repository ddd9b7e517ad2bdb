// Package cluster models a single server of the scale-out ensemble
// executing one benchmark: its storage subsystem, an analytic
// closed-form solver for QoS-constrained sustained throughput, and a
// discrete-event simulation with the paper's adaptive client driver.
// The two paths implement the same demand model and are cross-validated
// in the integration tests (DESIGN.md §5).
package cluster

import (
	"fmt"

	"warehousesim/internal/platform"
	"warehousesim/internal/workload"
)

// Storage abstracts the disk subsystem: a local disk, a laptop disk
// reached over a SAN, or a flash-cached remote disk (§3.5). It converts
// per-request disk demands into seconds of storage-station occupancy.
type Storage interface {
	// Name identifies the configuration in reports.
	Name() string
	// ReadTime returns storage occupancy for the read portion of a
	// request (ops positioning operations moving bytes in total).
	ReadTime(ops, bytes float64) float64
	// WriteTime is the analogue for writes.
	WriteTime(ops, bytes float64) float64
}

// ServiceTime returns total storage occupancy for a request, splitting
// its DiskOps between reads and writes in proportion to bytes moved.
func ServiceTime(s Storage, req workload.Request) float64 {
	total := req.DiskReadBytes + req.DiskWriteBytes
	if total == 0 {
		if req.DiskOps == 0 {
			return 0
		}
		return s.ReadTime(req.DiskOps, 0)
	}
	readOps := req.DiskOps * req.DiskReadBytes / total
	writeOps := req.DiskOps - readOps
	return s.ReadTime(readOps, req.DiskReadBytes) + s.WriteTime(writeOps, req.DiskWriteBytes)
}

// LocalDisk is a directly attached disk.
type LocalDisk struct {
	Disk platform.Disk
}

// Name implements Storage.
func (d LocalDisk) Name() string { return "local:" + d.Disk.Name }

// ReadTime implements Storage.
func (d LocalDisk) ReadTime(ops, bytes float64) float64 {
	return ops*d.Disk.AvgAccessMs/1e3 + bytes/(d.Disk.BandwidthMBps*1e6)
}

// WriteTime implements Storage.
func (d LocalDisk) WriteTime(ops, bytes float64) float64 {
	return d.ReadTime(ops, bytes)
}

// SANOverheadMs is the per-operation round-trip added by the basic SATA
// SAN of §3.5 (switch hop plus protocol processing).
const SANOverheadMs = 0.5

// RemoteDisk is a disk reached over the SAN: every operation pays the
// SAN round-trip on top of the disk's own access time.
type RemoteDisk struct {
	Disk platform.Disk
}

// Name implements Storage.
func (d RemoteDisk) Name() string { return "san:" + d.Disk.Name }

// ReadTime implements Storage.
func (d RemoteDisk) ReadTime(ops, bytes float64) float64 {
	return ops*(d.Disk.AvgAccessMs+SANOverheadMs)/1e3 + bytes/(d.Disk.BandwidthMBps*1e6)
}

// WriteTime implements Storage.
func (d RemoteDisk) WriteTime(ops, bytes float64) float64 {
	return d.ReadTime(ops, bytes)
}

// FlashOnlyDisk replaces the rotating disk entirely with a flash
// solid-state device — the §4 "flash as a disk replacement" extension.
// There is no positioning delay; ops pay cell-access latency and bytes
// pay the device bandwidth (writes include the amortized erase via
// the device's write latency).
type FlashOnlyDisk struct {
	Flash platform.Flash
}

// Name implements Storage.
func (d FlashOnlyDisk) Name() string { return "flash-ssd" }

// ReadTime implements Storage.
func (d FlashOnlyDisk) ReadTime(ops, bytes float64) float64 {
	return ops*d.Flash.ReadUs/1e6 + bytes/(d.Flash.BandwidthMBps*1e6)
}

// WriteTime implements Storage.
func (d FlashOnlyDisk) WriteTime(ops, bytes float64) float64 {
	return ops*d.Flash.WriteUs/1e6 + bytes/(d.Flash.BandwidthMBps*1e6)
}

// FlashCachedDisk fronts a (usually remote, low-power) disk with the
// on-board NAND flash cache of §3.5. Reads hit the flash with the
// workload-dependent HitRate (produced by the flashcache simulator);
// writes go to the flash log and are destaged to the disk in the
// background, so the foreground cost is the flash write plus a destage
// share of disk time.
type FlashCachedDisk struct {
	Flash   platform.Flash
	Backing Storage
	// HitRate is the read hit fraction in [0,1], measured by replaying
	// the workload's disk trace through the flashcache simulator.
	HitRate float64
	// DestageForeground is the fraction of write destage work that
	// cannot be hidden in the background (disk already saturated).
	DestageForeground float64
}

// Validate reports invalid cache parameters.
func (d FlashCachedDisk) Validate() error {
	if d.HitRate < 0 || d.HitRate > 1 {
		return fmt.Errorf("cluster: flash hit rate %g outside [0,1]", d.HitRate)
	}
	if d.DestageForeground < 0 || d.DestageForeground > 1 {
		return fmt.Errorf("cluster: destage fraction %g outside [0,1]", d.DestageForeground)
	}
	return nil
}

// Name implements Storage.
func (d FlashCachedDisk) Name() string {
	return fmt.Sprintf("flash(%.0f%%)+%s", d.HitRate*100, d.Backing.Name())
}

// ReadTime implements Storage.
func (d FlashCachedDisk) ReadTime(ops, bytes float64) float64 {
	hit := ops * d.HitRate * (d.Flash.ReadUs / 1e6)
	hitXfer := bytes * d.HitRate / (d.Flash.BandwidthMBps * 1e6)
	miss := d.Backing.ReadTime(ops*(1-d.HitRate), bytes*(1-d.HitRate))
	return hit + hitXfer + miss
}

// WriteTime implements Storage.
func (d FlashCachedDisk) WriteTime(ops, bytes float64) float64 {
	flashCost := ops*(d.Flash.WriteUs/1e6) + bytes/(d.Flash.BandwidthMBps*1e6)
	destage := d.Backing.WriteTime(ops, bytes) * d.DestageForeground
	return flashCost + destage
}
