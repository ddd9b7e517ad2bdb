// Package trace defines the access-trace substrate of the memory-blade
// and flash-cache experiments (§3.4, §3.5).
//
// The paper's methodology is trace-driven: gather memory traces from the
// benchmarks, then replay them through a two-level memory simulator. Our
// workload engines implement PageTracer, emitting the page accesses each
// request actually performs against the engine's own data structures
// (posting lists, mail spools, video chunks, map-task buffers). Disk
// traces for the flash-cache study are produced analogously, or
// synthesized from a working-set/popularity description when only a
// demand profile is available.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"warehousesim/internal/stats"
)

// PageAccess is one 4 KB-page reference.
type PageAccess struct {
	Page  int64
	Write bool
}

// PageTracer emits the page accesses of one request.
type PageTracer interface {
	TracePages(r *stats.RNG, emit func(page int64, write bool))
}

// DiskTracer emits the disk accesses of one request.
type DiskTracer interface {
	TraceDisk(r *stats.RNG, emit func(block int64, write bool))
}

// PageTrace is a replayable page-access sequence with request
// boundaries retained (RequestEnds[i] is the index one past request i's
// final access).
type PageTrace struct {
	Accesses    []PageAccess
	RequestEnds []int
}

// Requests returns the number of requests in the trace.
func (t *PageTrace) Requests() int { return len(t.RequestEnds) }

// CollectPages gathers a trace of the given number of requests.
func CollectPages(tr PageTracer, r *stats.RNG, requests int) *PageTrace {
	t := &PageTrace{}
	for i := 0; i < requests; i++ {
		tr.TracePages(r, func(page int64, write bool) {
			t.Accesses = append(t.Accesses, PageAccess{Page: page, Write: write})
		})
		t.RequestEnds = append(t.RequestEnds, len(t.Accesses))
	}
	return t
}

// SyntheticPages is a PageTracer driven purely by a footprint size and a
// Zipf popularity shape — used where no engine is required (standalone
// memory-blade studies, calibration sweeps).
type SyntheticPages struct {
	FootprintPages int64
	Zipf           *stats.Zipf
	// PagesPerRequest is the mean page touches per request.
	PagesPerRequest float64
	// WriteFraction of accesses are writes.
	WriteFraction float64
	// perm scatters Zipf ranks across the footprint so "hot" pages are
	// not physically contiguous.
	perm []int64
}

// NewSyntheticPages builds a synthetic tracer over footprintPages with
// Zipf popularity shape s.
func NewSyntheticPages(footprintPages int64, s float64, pagesPerRequest, writeFraction float64, seed uint64) (*SyntheticPages, error) {
	if footprintPages <= 0 {
		return nil, fmt.Errorf("trace: footprint must be positive")
	}
	if pagesPerRequest <= 0 {
		return nil, fmt.Errorf("trace: pages per request must be positive")
	}
	if writeFraction < 0 || writeFraction > 1 {
		return nil, fmt.Errorf("trace: write fraction %g outside [0,1]", writeFraction)
	}
	z, err := stats.NewZipf(int(footprintPages), s)
	if err != nil {
		return nil, err
	}
	r := stats.NewRNG(seed)
	perm := make([]int64, footprintPages)
	for i := range perm {
		perm[i] = int64(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return &SyntheticPages{
		FootprintPages:  footprintPages,
		Zipf:            z,
		PagesPerRequest: pagesPerRequest,
		WriteFraction:   writeFraction,
		perm:            perm,
	}, nil
}

// TracePages implements PageTracer.
func (s *SyntheticPages) TracePages(r *stats.RNG, emit func(page int64, write bool)) {
	n := int(s.PagesPerRequest)
	if frac := s.PagesPerRequest - float64(n); frac > 0 && r.Bool(frac) {
		n++
	}
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		emit(s.perm[s.Zipf.Rank(r)], r.Bool(s.WriteFraction))
	}
}

// SyntheticDisk is a DiskTracer over a block working set with Zipf
// popularity and sequential runs — the access pattern of the
// flash-cache study.
type SyntheticDisk struct {
	Blocks int64
	Zipf   *stats.Zipf
	// RunLength is the mean sequential run per access burst.
	RunLength float64
	// OpsPerRequest is the mean access bursts per request.
	OpsPerRequest float64
	// WriteFraction of bursts are writes.
	WriteFraction float64
}

// NewSyntheticDisk builds a synthetic disk tracer.
func NewSyntheticDisk(blocks int64, s, runLength, opsPerRequest, writeFraction float64) (*SyntheticDisk, error) {
	if blocks <= 0 || runLength < 1 || opsPerRequest <= 0 {
		return nil, fmt.Errorf("trace: invalid disk trace spec blocks=%d run=%g ops=%g",
			blocks, runLength, opsPerRequest)
	}
	if writeFraction < 0 || writeFraction > 1 {
		return nil, fmt.Errorf("trace: write fraction %g outside [0,1]", writeFraction)
	}
	z, err := stats.NewZipf(int(blocks), s)
	if err != nil {
		return nil, err
	}
	return &SyntheticDisk{Blocks: blocks, Zipf: z, RunLength: runLength,
		OpsPerRequest: opsPerRequest, WriteFraction: writeFraction}, nil
}

// TraceDisk implements DiskTracer.
func (s *SyntheticDisk) TraceDisk(r *stats.RNG, emit func(block int64, write bool)) {
	ops := int(s.OpsPerRequest)
	if frac := s.OpsPerRequest - float64(ops); frac > 0 && r.Bool(frac) {
		ops++
	}
	if ops < 1 {
		ops = 1
	}
	for o := 0; o < ops; o++ {
		start := int64(s.Zipf.Rank(r))
		write := r.Bool(s.WriteFraction)
		run := 1 + int(s.RunLength*r.ExpFloat64())
		for i := 0; i < run; i++ {
			emit((start+int64(i))%s.Blocks, write)
		}
	}
}

// --- compact binary encoding -------------------------------------------

// traceMagic guards the on-disk format.
const traceMagic = uint32(0x57485452) // "WHTR"

// EncodePages writes a page trace in a compact delta-varint format.
func EncodePages(w io.Writer, t *PageTrace) error {
	bw := bufio.NewWriter(w)
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, traceMagic); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Accesses))); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.RequestEnds))); err != nil {
		return err
	}
	prev := int64(0)
	for _, a := range t.Accesses {
		delta := uint64(zigzag(a.Page-prev)) << 1
		if a.Write {
			delta |= 1
		}
		if err := putUvarint(delta); err != nil {
			return err
		}
		prev = a.Page
	}
	prevEnd := 0
	for _, e := range t.RequestEnds {
		if err := putUvarint(uint64(e - prevEnd)); err != nil {
			return err
		}
		prevEnd = e
	}
	return bw.Flush()
}

// maxPrealloc caps the room DecodePages reserves from a header's
// counts. Longer traces grow by append, so a corrupt header cannot
// demand more memory than the file's body backs.
const maxPrealloc = 1 << 16

// DecodePages reads a trace written by EncodePages. It rejects a
// truncated body and request ends that decrease or pass the access
// count.
func DecodePages(rd io.Reader) (*PageTrace, error) {
	br := bufio.NewReader(rd)
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", magic)
	}
	nAcc, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading access count: %w", err)
	}
	nReq, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading request count: %w", err)
	}
	t := &PageTrace{
		Accesses:    make([]PageAccess, 0, min(nAcc, maxPrealloc)),
		RequestEnds: make([]int, 0, min(nReq, maxPrealloc)),
	}
	prev := int64(0)
	for i := uint64(0); i < nAcc; i++ {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: reading access %d of %d: %w", i, nAcc, err)
		}
		page := prev + unzigzag(uint64(v>>1))
		t.Accesses = append(t.Accesses, PageAccess{Page: page, Write: v&1 == 1})
		prev = page
	}
	prevEnd := uint64(0)
	for i := uint64(0); i < nReq; i++ {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: reading request end %d of %d: %w", i, nReq, err)
		}
		if v > nAcc-prevEnd {
			return nil, fmt.Errorf("trace: request %d ends %d accesses after access %d, past the trace's %d",
				i, v, prevEnd, nAcc)
		}
		prevEnd += v
		t.RequestEnds = append(t.RequestEnds, int(prevEnd))
	}
	return t, nil
}

func zigzag(v int64) uint64 {
	return uint64((v << 1) ^ (v >> 63))
}

func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}
