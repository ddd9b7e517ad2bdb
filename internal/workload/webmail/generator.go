package webmail

import (
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// Engine drives real sessions against the store and maps each action's
// measured work onto the calibrated demand profile.
type Engine struct {
	store    *Store
	profile  workload.Profile
	sessions []*Session

	meanCPU, meanOps, meanRead, meanWrite, meanNet float64

	// Page-trace layout: the spool region followed by the PHP/runtime
	// working set.
	spoolPages   int64
	totalPages   int64
	userZipf     *stats.Zipf
	sessionIndex int

	// pending holds the remaining paginated sub-requests of a large
	// action (attachment downloads and searches arrive in chunks).
	pending []workload.Request
}

const pageSize = 4096

// calibrationSteps estimates mean per-action work at construction.
const calibrationSteps = 4000

// New provisions the store and calibrates demand normalization.
func New(cfg Config, profile workload.Profile) (*Engine, error) {
	store, err := NewStore(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{store: store, profile: profile}
	// One concurrently active session per ~10 users is plenty of
	// behavioral diversity for demand sampling.
	n := cfg.Users / 10
	if n < 4 {
		n = 4
	}
	r := stats.NewRNG(cfg.Seed ^ 0xabcd)
	for i := 0; i < n; i++ {
		e.sessions = append(e.sessions, NewSession(store, r.Intn(cfg.Users)))
	}
	// Zipf user popularity for the page traces: some mailboxes are much
	// hotter than others.
	uz, err := stats.NewZipf(cfg.Users, profile.MemLocalityZipfS)
	if err != nil {
		return nil, err
	}
	e.userZipf = uz

	// Footprint layout.
	spoolBytes := store.TotalBytes
	e.spoolPages = spoolBytes / pageSize
	if e.spoolPages < 1 {
		e.spoolPages = 1
	}
	e.totalPages = int64(profile.MemFootprintMB * 1e6 / pageSize)
	if e.totalPages <= e.spoolPages {
		e.totalPages = e.spoolPages + 1
	}

	// Warm the store into steady state (folders fill toward their caps
	// and the background-delivery balance establishes) before measuring
	// the per-action means.
	for i := 0; i < calibrationSteps; i++ {
		e.sessions[i%len(e.sessions)].Step(r)
	}
	// Calibrate means.
	var cpu, ops, rd, wr, net float64
	for i := 0; i < calibrationSteps; i++ {
		w := e.sessions[i%len(e.sessions)].Step(r)
		cpu += w.CPUUnits
		ops += w.DiskOps
		rd += w.DiskReadBytes
		wr += w.DiskWriteBytes
		net += w.NetBytes
	}
	k := float64(calibrationSteps)
	e.meanCPU, e.meanOps, e.meanRead, e.meanWrite, e.meanNet =
		cpu/k, ops/k, rd/k, wr/k, net/k
	return e, nil
}

// Profile implements workload.Generator.
func (e *Engine) Profile() workload.Profile { return e.profile }

// Sample implements workload.Generator: advance one session by one
// action and scale its work onto the calibrated means. Actions whose
// demand exceeds maxDemandRatio times the mean are paginated into
// bounded sub-requests served back-to-back (the front end streams
// attachments and renders search results page by page), so no single
// HTTP request carries a whole-mailbox scan.
func (e *Engine) Sample(r *stats.RNG) workload.Request {
	if len(e.pending) > 0 {
		req := e.pending[0]
		e.pending = e.pending[1:]
		return req
	}
	s := e.sessions[e.sessionIndex%len(e.sessions)]
	e.sessionIndex++
	w := s.Step(r)
	p := e.profile
	full := workload.Request{
		CPURefSec:      p.CPURefSec * rawRatio(w.CPUUnits, e.meanCPU),
		DiskOps:        p.DiskOps * rawRatio(w.DiskOps, e.meanOps),
		DiskReadBytes:  p.DiskReadBytes * rawRatio(w.DiskReadBytes, e.meanRead),
		DiskWriteBytes: p.DiskWriteBytes * rawRatio(w.DiskWriteBytes, e.meanWrite),
		NetBytes:       p.NetBytes * rawRatio(w.NetBytes, e.meanNet),
	}
	parts := int(rawRatio(w.CPUUnits, e.meanCPU)/maxDemandRatio) + 1
	if parts <= 1 {
		return full
	}
	chunk := workload.Request{
		CPURefSec:      full.CPURefSec / float64(parts),
		DiskOps:        full.DiskOps / float64(parts),
		DiskReadBytes:  full.DiskReadBytes / float64(parts),
		DiskWriteBytes: full.DiskWriteBytes / float64(parts),
		NetBytes:       full.NetBytes / float64(parts),
	}
	for i := 1; i < parts; i++ {
		e.pending = append(e.pending, chunk)
	}
	return chunk
}

// TracePages implements trace.PageTracer: a session action touches its
// user's spool region (Zipf-popular users) plus the PHP runtime pages.
func (e *Engine) TracePages(r *stats.RNG, emit func(page int64, write bool)) {
	user := e.userZipf.Rank(r)
	// Each user's slice of the spool region.
	perUser := e.spoolPages / int64(e.store.Users())
	if perUser < 1 {
		perUser = 1
	}
	base := (int64(user) * perUser) % e.spoolPages
	// A message read touches a handful of spool pages.
	n := 1 + r.Intn(8)
	for i := 0; i < n; i++ {
		emit(base+r.Int63n(perUser*2)%e.spoolPages, false)
	}
	// Runtime/heap pages, mildly hot.
	runtimePages := e.totalPages - e.spoolPages
	for i := 0; i < 4; i++ {
		// Square the uniform to bias toward the front (hot runtime pages).
		u := r.Float64()
		emit(e.spoolPages+int64(u*u*float64(runtimePages)), i%2 == 1)
	}
}

// maxDemandRatio bounds how far one sub-request's demand may exceed the
// mean before the engine paginates the action (see Sample).
const maxDemandRatio = 6

func rawRatio(x, mean float64) float64 {
	if mean <= 0 {
		return 1
	}
	return x / mean
}
