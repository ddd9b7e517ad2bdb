// Package flashcache implements the paper's flash-based disk cache
// (§3.5, Table 3): a NAND flash device on the server board holding
// recently accessed disk pages in front of a low-power (laptop) disk on
// a SAN, after Kgil & Mudge's FlashCache.
//
// Any page not found in the OS page cache is looked up in a software
// hash table over the flash; hits are served at flash latency, misses go
// to the backing disk and are write-allocated into the flash (LRU). The
// simulator also tracks flash write traffic so the wear-out concern the
// paper raises (~100k writes per block with current technology) can be
// quantified against the 3-year depreciation cycle.
package flashcache

import (
	"fmt"
	"math"

	"warehousesim/internal/lru"
	"warehousesim/internal/stats"
	"warehousesim/internal/trace"
)

// Config sizes the flash cache.
type Config struct {
	// CacheBytes is the flash capacity (1 GB in Table 3a).
	CacheBytes int64
	// BlockBytes is the cache block (page) size.
	BlockBytes int
}

// DefaultConfig returns the paper's 1 GB flash with 4 KB blocks.
func DefaultConfig() Config {
	return Config{CacheBytes: 1 << 30, BlockBytes: 4096}
}

// Validate reports nonsensical configurations.
func (c Config) Validate() error {
	if c.CacheBytes <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("flashcache: non-positive sizing %+v", c)
	}
	if c.CacheBytes < int64(c.BlockBytes) {
		return fmt.Errorf("flashcache: cache smaller than one block")
	}
	if blocks := c.CacheBytes / int64(c.BlockBytes); blocks > math.MaxInt32 {
		return fmt.Errorf("flashcache: %d-block cache exceeds the %d-block table", blocks, math.MaxInt32)
	}
	return nil
}

// Stats summarizes a replay.
type Stats struct {
	Reads     int64
	ReadHits  int64
	Writes    int64
	WriteHits int64 // write to a block already cached
	// FlashBlockWrites counts block programs into the flash (fills on
	// read misses plus foreground writes) — the wear-relevant figure.
	FlashBlockWrites int64
	Evictions        int64
	Requests         int64
}

// Sim is the flash disk-cache simulator: an LRU block cache with a
// hash-table lookup (as the paper describes) and wear accounting.
type Sim struct {
	cfg    Config
	blocks lru.Table
	stats  Stats
}

// New builds an empty cache.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg, blocks: lru.New(int(cfg.CacheBytes / int64(cfg.BlockBytes)))}, nil
}

// Read looks a disk block up; a miss fetches it from the backing disk
// and installs it (write-allocate). Returns true on a flash hit.
func (s *Sim) Read(block int64) bool {
	s.stats.Reads++
	if slot := s.blocks.Find(block); slot >= 0 {
		s.blocks.Touch(slot)
		s.stats.ReadHits++
		return true
	}
	s.install(block)
	return false
}

// Write stores a disk block through the flash (the flash acts as a
// write buffer; destage to disk happens in the background).
func (s *Sim) Write(block int64) {
	s.stats.Writes++
	if slot := s.blocks.Find(block); slot >= 0 {
		s.blocks.Touch(slot)
		s.stats.WriteHits++
		s.stats.FlashBlockWrites++ // re-program the block
		return
	}
	s.install(block)
}

func (s *Sim) install(block int64) {
	if s.blocks.Len() < s.blocks.Cap() {
		s.blocks.Add(block)
	} else {
		s.blocks.Replace(s.blocks.Tail(), block)
		s.stats.Evictions++
	}
	s.stats.FlashBlockWrites++
}

// Stats returns the accumulated counters.
func (s *Sim) Stats() Stats { return s.stats }

// Replay runs requests from a disk tracer through the cache.
func Replay(s *Sim, tr trace.DiskTracer, r *stats.RNG, requests int) Stats {
	emit := func(block int64, write bool) {
		if write {
			s.Write(block)
		} else {
			s.Read(block)
		}
	}
	for i := 0; i < requests; i++ {
		tr.TraceDisk(r, emit)
	}
	s.stats.Requests += int64(requests)
	return s.stats
}

// diskWorkingSets gives, per benchmark, the disk-resident working set
// and access skew used to synthesize disk traces for the flash study
// (derived from Table 1's dataset descriptions: 20 GB websearch dataset,
// 7 GB mail store, edge-cached video library, 5 GB mapreduce corpus).
// The columns are trace.NewSyntheticDisk's parameters.
var diskWorkingSets = []struct {
	name                      string
	bytes                     int64
	skew, run, ops, writeFrac float64
}{
	{"websearch", 20e9, 1.05, 12, 2.2, 0.02},
	{"webmail", 7e9, 0.95, 6, 0.5, 0.25},
	// Edge video traffic is highly skewed (Gill et al.); the flash
	// front absorbs most cold-tier reads.
	{"ytube", 12e9, 1.15, 48, 1.0, 0.01},
	{"mapred-wc", 5e9, 0.70, 64, 16, 0.05},
	{"mapred-wr", 5e9, 0.60, 64, 0.5, 0.95},
}

// DiskWorkingSet builds the synthetic disk trace for one benchmark's
// working set (see diskWorkingSets), and only that one: each build
// precomputes a Zipf table over millions of blocks.
func DiskWorkingSet(name string) (trace.SyntheticDisk, error) {
	for _, w := range diskWorkingSets {
		if w.name != name {
			continue
		}
		sd, err := trace.NewSyntheticDisk(w.bytes/4096, w.skew, w.run, w.ops, w.writeFrac)
		if err != nil {
			return trace.SyntheticDisk{}, fmt.Errorf("flashcache: %s working set: %w", name, err)
		}
		return *sd, nil
	}
	return trace.SyntheticDisk{}, fmt.Errorf("flashcache: no disk working set for workload %q", name)
}

// DiskWorkingSets builds every benchmark's working set, keyed by name.
//
//whvet:allow testonly cmd/whperf, a separate module the load does not include, replays the websearch set from it
func DiskWorkingSets() map[string]trace.SyntheticDisk {
	out := make(map[string]trace.SyntheticDisk, len(diskWorkingSets))
	for _, w := range diskWorkingSets {
		sd, err := DiskWorkingSet(w.name)
		if err != nil {
			panic(err) // static parameters; cannot fail
		}
		out[w.name] = sd
	}
	return out
}
