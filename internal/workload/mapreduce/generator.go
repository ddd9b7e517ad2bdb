package mapreduce

import (
	"fmt"

	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// Engine adapts a completed job's per-task statistics into the
// workload.Generator interface: the batch simulation draws task demands
// from the real tasks the runtime executed.
type Engine struct {
	profile workload.Profile
	tasks   []TaskStats

	meanIn, meanOut, meanRecords float64
	cursor                       int

	// footprint layout for page traces
	totalPages int64
}

const pageSize = 4096

// NewWordCount generates a corpus, runs the word-count job for real,
// and builds a generator from its task statistics.
func NewWordCount(corpus CorpusConfig, profile workload.Profile) (*Engine, error) {
	d, err := NewDFS(DefaultDFSConfig(), corpus.Seed)
	if err != nil {
		return nil, err
	}
	if err := GenerateCorpus(d, "corpus", corpus); err != nil {
		return nil, err
	}
	res, err := Run(d, WordCountJob("corpus", "counts"))
	if err != nil {
		return nil, err
	}
	tasks := append(append([]TaskStats{}, res.MapTasks...), res.ReduceTasks...)
	return newEngine(profile, tasks)
}

// NewWrite runs the distributed-write job for real and builds a
// generator from its task statistics.
func NewWrite(corpus CorpusConfig, tasks int, profile workload.Profile) (*Engine, error) {
	d, err := NewDFS(DefaultDFSConfig(), corpus.Seed)
	if err != nil {
		return nil, err
	}
	chunk := d.Config().ChunkBytes
	sts, err := RunWrite(d, "out", tasks, chunk, corpus)
	if err != nil {
		return nil, err
	}
	return newEngine(profile, sts)
}

func newEngine(profile workload.Profile, tasks []TaskStats) (*Engine, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("mapreduce: no tasks to sample from")
	}
	e := &Engine{profile: profile, tasks: tasks}
	var in, out, rec float64
	for _, t := range tasks {
		in += float64(t.InputBytes)
		out += float64(t.OutputBytes)
		rec += float64(t.Records)
	}
	n := float64(len(tasks))
	e.meanIn, e.meanOut, e.meanRecords = in/n, out/n, rec/n
	e.totalPages = int64(profile.MemFootprintMB * 1e6 / pageSize)
	if e.totalPages < 16 {
		e.totalPages = 16
	}
	return e, nil
}

// Profile implements workload.Generator.
func (e *Engine) Profile() workload.Profile { return e.profile }

// Sample implements workload.Generator: the next real task's measured
// work, scaled onto the calibrated demand means. Tasks are served
// round-robin so a batch run covers the whole job.
func (e *Engine) Sample(r *stats.RNG) workload.Request {
	t := e.tasks[e.cursor%len(e.tasks)]
	e.cursor++
	p := e.profile

	// CPU follows records processed; disk demand follows the dominant
	// byte stream of the task kind.
	cpu := p.CPURefSec * ratio(float64(t.Records), e.meanRecords)
	req := workload.Request{
		CPURefSec: cpu,
		DiskOps:   p.DiskOps,
		NetBytes:  p.NetBytes * ratio(float64(t.OutputBytes), e.meanOut),
	}
	if p.DiskWriteBytes > 0 {
		req.DiskWriteBytes = p.DiskWriteBytes * ratio(float64(t.OutputBytes), e.meanOut)
	}
	if p.DiskReadBytes > 0 {
		req.DiskReadBytes = p.DiskReadBytes * ratio(float64(t.InputBytes), e.meanIn)
	}
	return req
}

// TracePages implements trace.PageTracer: a task streams its input
// chunk sequentially and writes scattered shuffle-buffer pages.
func (e *Engine) TracePages(r *stats.RNG, emit func(page int64, write bool)) {
	// Sequential chunk region: place each task's chunk deterministically
	// in the footprint.
	t := e.tasks[e.cursor%len(e.tasks)]
	chunkPages := t.InputBytes / pageSize
	if chunkPages < 1 {
		chunkPages = 1
	}
	if chunkPages > 64 {
		chunkPages = 64 // trace a prefix; locality pattern is what matters
	}
	base := r.Int63n(e.totalPages)
	for p := int64(0); p < chunkPages; p++ {
		emit((base+p)%e.totalPages, false)
	}
	// Shuffle buffer writes: scattered but reused region (first eighth
	// of the footprint).
	shuffle := e.totalPages / 8
	if shuffle < 1 {
		shuffle = 1
	}
	for i := int64(0); i < chunkPages/4+1; i++ {
		emit(r.Int63n(shuffle), true)
	}
}

func ratio(x, mean float64) float64 {
	if mean <= 0 {
		return 1
	}
	return x / mean
}
