// Package ytube implements the rich-media benchmark of the suite
// (Table 1): a streaming media server standing in for the paper's
// modified SPECweb2005 Support workload driven with YouTube traffic
// characteristics (after Gill et al.'s edge-server study).
//
// A synthetic video catalog is generated with heavy-tailed file sizes
// and Zipf popularity. Clients fetch videos in streaming chunks; many
// sessions abandon early (partial views dominate real traces). The
// hottest catalog prefix is served from the page cache; cold videos pay
// disk reads. QoS models streaming behavior: each chunk must arrive
// within its playout deadline.
package ytube

import (
	"fmt"

	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// Config sizes the synthetic catalog.
type Config struct {
	// Videos is the catalog size.
	Videos int
	// PopularityZipfS shapes video popularity (Gill et al. observe
	// Zipf-like popularity at the edge).
	PopularityZipfS float64
	// MeanVideoBytes and MedianVideoBytes parameterize the size
	// distribution (right-skewed log-normal).
	MeanVideoBytes   float64
	MedianVideoBytes float64
	// MaxVideoBytes caps the tail.
	MaxVideoBytes float64
	// ChunkBytes is the streaming chunk size.
	ChunkBytes float64
	// CacheFraction is the fraction of total catalog bytes resident in
	// the page cache (hottest videos first).
	CacheFraction float64
	// AbandonProb is the per-chunk probability that the viewer stops
	// watching (partial views dominate edge traces).
	AbandonProb float64
	// Seed drives catalog generation.
	Seed uint64
}

// DefaultConfig returns a catalog with edge-trace-like statistics,
// scaled for simulation speed.
func DefaultConfig() Config {
	return Config{
		Videos:           20000,
		PopularityZipfS:  0.9,
		MeanVideoBytes:   8e6,
		MedianVideoBytes: 4e6,
		MaxVideoBytes:    100e6,
		ChunkBytes:       200e3,
		CacheFraction:    0.30,
		AbandonProb:      0.12,
		Seed:             1,
	}
}

// Validate reports nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case c.Videos <= 0:
		return fmt.Errorf("ytube: no videos")
	case c.PopularityZipfS <= 0:
		return fmt.Errorf("ytube: non-positive popularity shape")
	case c.MedianVideoBytes <= 0 || c.MeanVideoBytes <= c.MedianVideoBytes:
		return fmt.Errorf("ytube: invalid size distribution mean=%g median=%g",
			c.MeanVideoBytes, c.MedianVideoBytes)
	case c.ChunkBytes <= 0:
		return fmt.Errorf("ytube: non-positive chunk size")
	case c.CacheFraction < 0 || c.CacheFraction > 1:
		return fmt.Errorf("ytube: cache fraction %g outside [0,1]", c.CacheFraction)
	case c.AbandonProb < 0 || c.AbandonProb >= 1:
		return fmt.Errorf("ytube: abandon probability %g outside [0,1)", c.AbandonProb)
	}
	return nil
}

// Video is one catalog entry.
type Video struct {
	Bytes  int64
	Cached bool
}

// Catalog is the immutable video library plus its popularity model.
type Catalog struct {
	cfg        Config
	videos     []Video
	popularity *stats.Zipf
	totalBytes int64
	// pageStart[v] is the first page of video v in the virtual layout.
	pageStart []int64
	// sessions tracks in-progress viewers per engine instance (by
	// generator, not here; Catalog stays immutable).
}

const pageSize = 4096

// BuildCatalog generates the video library. Deterministic per Config.
func BuildCatalog(cfg Config) (*Catalog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pop, err := stats.NewZipf(cfg.Videos, cfg.PopularityZipfS)
	if err != nil {
		return nil, err
	}
	sizeDist := stats.Clamp{
		S:  stats.LogNormalFromMeanP50(cfg.MeanVideoBytes, cfg.MedianVideoBytes),
		Lo: 256e3, Hi: cfg.MaxVideoBytes,
	}
	c := &Catalog{cfg: cfg, popularity: pop,
		videos: make([]Video, cfg.Videos), pageStart: make([]int64, cfg.Videos+1)}
	r := stats.NewRNG(cfg.Seed)
	var page int64
	for v := range c.videos {
		size := int64(sizeDist.Sample(r))
		c.videos[v] = Video{Bytes: size}
		c.totalBytes += size
		c.pageStart[v] = page
		page += (size + pageSize - 1) / pageSize
	}
	c.pageStart[cfg.Videos] = page

	// Cache the popular prefix up to CacheFraction of total bytes.
	// Popularity rank equals index (rank 0 hottest), so a prefix walk
	// caches the most-requested bytes first.
	budget := int64(cfg.CacheFraction * float64(c.totalBytes))
	var used int64
	for v := range c.videos {
		if used+c.videos[v].Bytes > budget {
			break
		}
		c.videos[v].Cached = true
		used += c.videos[v].Bytes
	}
	return c, nil
}

// Pick draws a video by popularity.
func (c *Catalog) Pick(r *stats.RNG) int { return c.popularity.Rank(r) }

// viewer is one in-progress streaming session.
type viewer struct {
	video  int
	offset int64
}

// Engine serves chunk requests from streaming viewers and maps the work
// onto the calibrated demand profile.
type Engine struct {
	cat     *Catalog
	profile workload.Profile
	viewers []viewer

	meanChunk, meanColdBytes, meanOps float64
}

// concurrentViewers is the pool of interleaved streaming sessions the
// generator advances round-robin.
const concurrentViewers = 64

// calibrationChunks estimates mean per-chunk work at construction.
const calibrationChunks = 5000

// New builds the catalog and calibrates the engine.
func New(cfg Config, profile workload.Profile) (*Engine, error) {
	cat, err := BuildCatalog(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{cat: cat, profile: profile, viewers: make([]viewer, concurrentViewers)}
	r := stats.NewRNG(cfg.Seed ^ 0xfeed)
	for i := range e.viewers {
		e.viewers[i] = viewer{video: cat.Pick(r)}
	}
	var chunk, cold, ops float64
	for i := 0; i < calibrationChunks; i++ {
		cb, coldB, op := e.step(r, i%len(e.viewers))
		chunk += cb
		cold += coldB
		ops += op
	}
	n := float64(calibrationChunks)
	e.meanChunk, e.meanColdBytes, e.meanOps = chunk/n, cold/n, ops/n
	return e, nil
}

// step advances viewer i by one chunk and returns (chunkBytes,
// coldDiskBytes, diskOps).
func (e *Engine) step(r *stats.RNG, i int) (chunkBytes, coldBytes, ops float64) {
	v := &e.viewers[i]
	vid := e.cat.videos[v.video]
	remaining := vid.Bytes - v.offset
	chunk := int64(e.cat.cfg.ChunkBytes)
	if remaining < chunk {
		chunk = remaining
	}
	v.offset += chunk
	done := v.offset >= vid.Bytes || r.Bool(e.cat.cfg.AbandonProb)
	if done {
		*v = viewer{video: e.cat.Pick(r)}
	}
	if vid.Cached {
		return float64(chunk), 0, 0
	}
	// Cold: one positioning op per chunk (mostly sequential within the
	// video, but interleaved across concurrent streams).
	return float64(chunk), float64(chunk), 1
}

// Profile implements workload.Generator.
func (e *Engine) Profile() workload.Profile { return e.profile }

// Sample implements workload.Generator: serve the next chunk of a
// streaming session.
func (e *Engine) Sample(r *stats.RNG) workload.Request {
	i := r.Intn(len(e.viewers))
	chunk, cold, ops := e.step(r, i)
	p := e.profile
	return workload.Request{
		CPURefSec:     p.CPURefSec * ratio(chunk, e.meanChunk),
		DiskOps:       p.DiskOps * ratio(ops, e.meanOps),
		DiskReadBytes: p.DiskReadBytes * ratio(cold, e.meanColdBytes),
		NetBytes:      p.NetBytes * ratio(chunk, e.meanChunk),
	}
}

// TracePages implements trace.PageTracer: chunk delivery touches the
// video's pages sequentially (scaled into the profile footprint), with
// strong reuse on the popular prefix.
func (e *Engine) TracePages(r *stats.RNG, emit func(page int64, write bool)) {
	i := r.Intn(len(e.viewers))
	v := e.viewers[i]
	start := e.cat.pageStart[v.video] + v.offset/pageSize
	pages := int64(e.cat.cfg.ChunkBytes) / pageSize
	if pages < 1 {
		pages = 1
	}
	footprintPages := int64(e.profile.MemFootprintMB * 1e6 / pageSize)
	if footprintPages < 1 {
		footprintPages = 1
	}
	for p := int64(0); p < pages; p++ {
		emit((start+p)%footprintPages, false)
	}
	// Advance the viewer so consecutive trace calls walk the stream.
	e.step(r, i)
}

func ratio(x, mean float64) float64 {
	if mean <= 0 {
		return 1
	}
	return x / mean
}
