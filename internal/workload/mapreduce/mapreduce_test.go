package mapreduce

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

func smallDFS(t *testing.T) *DFS {
	t.Helper()
	cfg := DFSConfig{Nodes: 4, Replication: 2, ChunkBytes: 1024}
	d, err := NewDFS(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDFSConfigValidate(t *testing.T) {
	if err := DefaultDFSConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bads := []DFSConfig{
		{Nodes: 0, Replication: 1, ChunkBytes: 1},
		{Nodes: 2, Replication: 3, ChunkBytes: 1},
		{Nodes: 2, Replication: 1, ChunkBytes: 0},
	}
	for i, c := range bads {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDFSRoundTrip(t *testing.T) {
	d := smallDFS(t)
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := d.Create("f", data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadAll("f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("round trip corrupted data")
	}
	n, err := d.FileChunks("f")
	if err != nil || n != 5 {
		t.Errorf("chunks = %d, %v; want 5 (5000B / 1KB)", n, err)
	}
	sz, err := fileBytes(d, "f")
	if err != nil || sz != 5000 {
		t.Errorf("bytes = %d, %v", sz, err)
	}
}

func TestDFSDuplicateCreateFails(t *testing.T) {
	d := smallDFS(t)
	if err := d.Create("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := d.Create("f", []byte("y")); err == nil {
		t.Fatal("duplicate create accepted")
	}
}

func TestDFSReplication(t *testing.T) {
	d := smallDFS(t)
	data := make([]byte, 4096)
	if err := d.Create("f", data); err != nil {
		t.Fatal(err)
	}
	// 4 chunks x 1KB x 2 replicas = 8KB physical.
	if got := d.TotalStoredBytes(); got != 8192 {
		t.Errorf("stored bytes = %d, want 8192", got)
	}
	// Placement balances across nodes.
	for n, u := range d.usage {
		if u > 4096 {
			t.Errorf("node %d overloaded: %d", n, u)
		}
	}
}

func TestDFSReadChunkErrors(t *testing.T) {
	d := smallDFS(t)
	if _, _, err := d.ReadChunk("missing", 0); err == nil {
		t.Error("missing file read accepted")
	}
	if err := d.Create("f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ReadChunk("f", 5); err == nil {
		t.Error("out-of-range chunk accepted")
	}
	if _, node, err := d.ReadChunk("f", 0); err != nil || node < 0 || node >= 4 {
		t.Errorf("chunk read: node %d, %v", node, err)
	}
}

func TestWordCountCorrectness(t *testing.T) {
	d := smallDFS(t)
	text := "the quick fox\nthe lazy dog\nthe fox"
	if err := d.Create("in", []byte(text)); err != nil {
		t.Fatal(err)
	}
	job := WordCountJob("in", "out")
	job.ReduceTasks = 3
	res, err := Run(d, job)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		parts := strings.Split(line, "\t")
		if len(parts) != 2 {
			t.Fatalf("malformed output line %q", line)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			t.Fatal(err)
		}
		counts[parts[0]] = n
	}
	want := map[string]int{"the": 3, "quick": 1, "fox": 2, "lazy": 1, "dog": 1}
	if len(counts) != len(want) {
		t.Fatalf("got %v, want %v", counts, want)
	}
	for w, n := range want {
		if counts[w] != n {
			t.Errorf("count[%q] = %d, want %d", w, counts[w], n)
		}
	}
	if n := len(res.MapTasks) + len(res.ReduceTasks); n != 1+3 {
		t.Errorf("tasks = %d", n)
	}
}

func TestWordCountCombinerReducesShuffle(t *testing.T) {
	build := func(useCombiner bool) int64 {
		d := smallDFS(t)
		// Highly repetitive input -> combiner collapses it.
		line := strings.Repeat("word ", 100)
		if err := d.Create("in", []byte(line)); err != nil {
			t.Fatal(err)
		}
		job := WordCountJob("in", "out")
		if !useCombiner {
			job.Combiner = nil
		}
		res, err := Run(d, job)
		if err != nil {
			t.Fatal(err)
		}
		return res.ShuffleBytes
	}
	with, without := build(true), build(false)
	if with >= without {
		t.Errorf("combiner did not shrink shuffle: %d vs %d", with, without)
	}
}

func TestRunValidatesJob(t *testing.T) {
	d := smallDFS(t)
	if _, err := Run(d, Job{}); err == nil {
		t.Error("empty job accepted")
	}
	if err := d.Create("in", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := d.Create("out", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d, WordCountJob("in", "out")); err == nil {
		t.Error("existing output accepted")
	}
	if _, err := Run(d, WordCountJob("missing", "out2")); err == nil {
		t.Error("missing input accepted")
	}
}

func TestGenerateCorpusSizeAndDeterminism(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.TotalBytes = 64 << 10
	d1 := smallDFS(t)
	if err := GenerateCorpus(d1, "c", cfg); err != nil {
		t.Fatal(err)
	}
	sz, err := fileBytes(d1, "c")
	if err != nil {
		t.Fatal(err)
	}
	if sz < cfg.TotalBytes || sz > cfg.TotalBytes+1024 {
		t.Errorf("corpus size %d, want ~%d", sz, cfg.TotalBytes)
	}
	d2 := smallDFS(t)
	if err := GenerateCorpus(d2, "c", cfg); err != nil {
		t.Fatal(err)
	}
	a, _ := d1.ReadAll("c")
	b, _ := d2.ReadAll("c")
	if string(a) != string(b) {
		t.Error("corpus generation not deterministic")
	}
}

func TestAppendWordDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		w := string(appendWord(nil, i))
		if seen[w] {
			t.Fatalf("appendWord(%d) = %q duplicates an earlier word", i, w)
		}
		seen[w] = true
	}
}

func TestRunWrite(t *testing.T) {
	d := smallDFS(t)
	cfg := DefaultCorpusConfig()
	sts, err := RunWrite(d, "w", 5, 2048, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 5 {
		t.Fatalf("tasks = %d", len(sts))
	}
	for i, st := range sts {
		if st.OutputBytes <= 0 || st.Records <= 0 {
			t.Errorf("task %d empty: %+v", i, st)
		}
	}
	// Files must exist with roughly the requested size.
	for i := 0; i < 5; i++ {
		name := "w-0000" + strconv.Itoa(i)
		sz, err := fileBytes(d, name)
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if sz < 2048 {
			t.Errorf("%s only %d bytes", name, sz)
		}
	}
	if _, err := RunWrite(d, "x", 0, 10, cfg); err == nil {
		t.Error("zero tasks accepted")
	}
	bad := cfg
	bad.WordsPerLine = 0
	if _, err := RunWrite(d, "y", 1, 10, bad); err == nil {
		t.Error("invalid corpus config accepted")
	}
}

func TestEngineWordCount(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.TotalBytes = 256 << 10
	prof := workload.MapReduceWCProfile()
	e, err := NewWordCount(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.tasks) == 0 {
		t.Fatal("no tasks")
	}
	r := stats.NewRNG(3)
	var cpu, rd stats.Summary
	for i := 0; i < len(e.tasks)*3; i++ {
		req := e.Sample(r)
		cpu.Add(req.CPURefSec)
		rd.Add(req.DiskReadBytes)
	}
	if m := cpu.Mean(); math.Abs(m-prof.CPURefSec)/prof.CPURefSec > 0.05 {
		t.Errorf("CPU mean %g vs profile %g", m, prof.CPURefSec)
	}
	if m := rd.Mean(); math.Abs(m-prof.DiskReadBytes)/prof.DiskReadBytes > 0.25 {
		t.Errorf("disk-read mean %g vs profile %g", m, prof.DiskReadBytes)
	}
}

func TestEngineWrite(t *testing.T) {
	cfg := DefaultCorpusConfig()
	prof := workload.MapReduceWRProfile()
	e, err := NewWrite(cfg, 32, prof)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(4)
	var wr stats.Summary
	for i := 0; i < 96; i++ {
		req := e.Sample(r)
		wr.Add(req.DiskWriteBytes)
		if req.DiskReadBytes != 0 {
			t.Fatal("write job should not read")
		}
	}
	if m := wr.Mean(); math.Abs(m-prof.DiskWriteBytes)/prof.DiskWriteBytes > 0.1 {
		t.Errorf("disk-write mean %g vs profile %g", m, prof.DiskWriteBytes)
	}
}

func TestEngineTracePages(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.TotalBytes = 128 << 10
	e, err := NewWordCount(cfg, workload.MapReduceWCProfile())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5)
	reads, writes := 0, 0
	for i := 0; i < 100; i++ {
		e.TracePages(r, func(p int64, w bool) {
			if p < 0 || p >= e.totalPages {
				t.Fatalf("page %d outside footprint", p)
			}
			if w {
				writes++
			} else {
				reads++
			}
		})
	}
	if reads == 0 || writes == 0 {
		t.Errorf("trace lacks reads (%d) or writes (%d)", reads, writes)
	}
}

// Property: word count over any small random corpus conserves the total
// word count (sum of counts == words in).
func TestQuickWordCountConservation(t *testing.T) {
	f := func(seed uint64) bool {
		d, err := NewDFS(DFSConfig{Nodes: 3, Replication: 1, ChunkBytes: 256}, seed)
		if err != nil {
			return false
		}
		r := stats.NewRNG(seed)
		var b strings.Builder
		words := 0
		lines := 1 + r.Intn(20)
		for l := 0; l < lines; l++ {
			n := 1 + r.Intn(10)
			for w := 0; w < n; w++ {
				if w > 0 {
					b.WriteByte(' ')
				}
				b.Write(appendWord(nil, r.Intn(50)))
				words++
			}
			b.WriteByte('\n')
		}
		if err := d.Create("in", []byte(b.String())); err != nil {
			return false
		}
		if _, err := Run(d, WordCountJob("in", "out")); err != nil {
			return false
		}
		out, err := d.ReadAll("out")
		if err != nil {
			return false
		}
		total := 0
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			parts := strings.Split(line, "\t")
			if len(parts) != 2 {
				return false
			}
			n, err := strconv.Atoi(parts[1])
			if err != nil {
				return false
			}
			total += n
		}
		return total == words
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// fileBytes returns the logical size of a file.
func fileBytes(d *DFS, name string) (int64, error) {
	data, err := d.ReadAll(name)
	return int64(len(data)), err
}
