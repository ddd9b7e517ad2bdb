package mapreduce

import (
	"strconv"
	"strings"
	"testing"

	"warehousesim/internal/stats"
)

func TestScheduleMapTasksLocality(t *testing.T) {
	cfg := DFSConfig{Nodes: 6, Replication: 3, ChunkBytes: 1024}
	d, err := NewDFS(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 60*1024) // 60 chunks over 6 nodes
	if err := d.Create("in", data); err != nil {
		t.Fatal(err)
	}
	as, st, err := ScheduleMapTasksExcluding(d, "in", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks != 60 || len(as) != 60 {
		t.Fatalf("tasks = %d", st.Tasks)
	}
	// With replication 3 on 6 nodes and balanced placement, locality
	// should be essentially perfect.
	if st.LocalityRate() < 0.9 {
		t.Errorf("locality rate %.2f too low", st.LocalityRate())
	}
	// Balance: max/min within the cap slack.
	if st.MinLoad == 0 || float64(st.MaxLoad) > 1.5*float64(st.MinLoad) {
		t.Errorf("imbalance: max load %d, min load %d", st.MaxLoad, st.MinLoad)
	}
	// Local assignments must actually sit on replica holders.
	ids := d.files["in"]
	for _, a := range as {
		if !a.Local {
			continue
		}
		found := false
		for _, n := range d.chunks[ids[a.Chunk]].replicas {
			if n == a.Node {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("chunk %d claimed local on non-replica node %d", a.Chunk, a.Node)
		}
	}
	// Assignments cover every chunk exactly once, in order.
	for i, a := range as {
		if a.Chunk != i {
			t.Fatalf("assignment order broken at %d: %+v", i, a)
		}
	}
}

func TestScheduleMissingFile(t *testing.T) {
	d := smallDFS(t)
	if _, _, err := ScheduleMapTasksExcluding(d, "none", nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestScheduleSingleNode(t *testing.T) {
	cfg := DFSConfig{Nodes: 1, Replication: 1, ChunkBytes: 512}
	d, err := NewDFS(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Create("in", make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	_, st, err := ScheduleMapTasksExcluding(d, "in", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.LocalityRate() != 1 {
		t.Errorf("single node must be fully local, got %g", st.LocalityRate())
	}
}

func TestGrepJobCorrectness(t *testing.T) {
	d := smallDFS(t)
	text := "error: disk failed\nall good here\nerror: cpu melted\nwarning: hot\n"
	if err := d.Create("log", []byte(text)); err != nil {
		t.Fatal(err)
	}
	job, err := grepJob("log", "matches", `error: \w+`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, job)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.ReadAll("matches")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 2 {
		t.Fatalf("matches = %q", lines)
	}
	found := map[string]bool{}
	for _, l := range lines {
		parts := strings.Split(l, "\t")
		if len(parts) != 2 || parts[1] != "1" {
			t.Fatalf("malformed line %q", l)
		}
		found[parts[0]] = true
	}
	if !found["error: disk"] || !found["error: cpu"] {
		t.Errorf("wrong matches: %v", found)
	}
	if res.ShuffleBytes <= 0 {
		t.Error("grep moved no shuffle data")
	}
}

func TestGrepJobBadPattern(t *testing.T) {
	if _, err := grepJob("a", "b", "("); err == nil {
		t.Fatal("invalid regexp accepted")
	}
}

func TestTopKReducer(t *testing.T) {
	r := topKReducer{Threshold: 3}
	var out []KV
	emit := func(k, v string) { out = append(out, KV{k, v}) }
	r.Reduce("rare", []string{"1", "1"}, emit)
	if len(out) != 0 {
		t.Fatal("below-threshold key emitted")
	}
	r.Reduce("hot", []string{"2", "2"}, emit)
	if len(out) != 1 || out[0].Key != "hot" || out[0].Value != "4" {
		t.Fatalf("out = %v", out)
	}
}

func TestGrepOverGeneratedCorpus(t *testing.T) {
	d, err := NewDFS(DefaultDFSConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCorpusConfig()
	cfg.TotalBytes = 128 << 10
	if err := GenerateCorpus(d, "c", cfg); err != nil {
		t.Fatal(err)
	}
	// The most popular word "wa" must appear and be counted consistently
	// with a direct scan.
	job, err := grepJob("c", "out", `\bwa\b`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d, job); err != nil {
		t.Fatal(err)
	}
	out, err := d.ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := d.ReadAll("c")
	if err != nil {
		t.Fatal(err)
	}
	direct := 0
	for _, w := range strings.Fields(string(raw)) {
		if w == "wa" {
			direct++
		}
	}
	var counted int
	for _, l := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		parts := strings.Split(l, "\t")
		if parts[0] == "wa" {
			n, err := strconv.Atoi(parts[1])
			if err != nil {
				t.Fatal(err)
			}
			counted = n
		}
	}
	if counted != direct {
		t.Errorf("grep counted %d, direct scan %d", counted, direct)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	build := func() ScheduleStats {
		d, err := NewDFS(DFSConfig{Nodes: 5, Replication: 2, ChunkBytes: 256}, 9)
		if err != nil {
			t.Fatal(err)
		}
		r := stats.NewRNG(10)
		data := make([]byte, 40*256)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		if err := d.Create("in", data); err != nil {
			t.Fatal(err)
		}
		_, st, err := ScheduleMapTasksExcluding(d, "in", nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if a, b := build(), build(); a != b {
		t.Errorf("scheduling not deterministic: %+v vs %+v", a, b)
	}
}
