package main

import (
	"bytes"
	"testing"

	"warehousesim/internal/memblade"
	"warehousesim/internal/obs/span"
)

// TestReplaySameSeedDoubleRun is whtrace's same-seed determinism check:
// the replay behind `whtrace -workload websearch -requests 2000 -replay
// -obs-out ... -trace-out ...`, at the flag defaults, run twice in one
// process, must export the same obs JSONL and Perfetto trace bytes.
func TestReplaySameSeedDoubleRun(t *testing.T) {
	run := func() (obsOut, traceOut []byte) {
		tr, footprint, err := generate("websearch", 1, 2000)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := policyFor("random")
		if err != nil {
			t.Fatal(err)
		}
		cfg := memblade.Config{FootprintPages: footprint, LocalFraction: 0.25, Policy: pol, Seed: 1}
		sim, err := memblade.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sink := instrument(sim, 1024, 1)
		st := memblade.Replay(sim, tr)
		if st.Misses == 0 || sink.EventCount(span.Stream) == 0 {
			t.Fatalf("replay recorded no misses or spans: %+v", st)
		}
		sink.SetManifest(replayManifest("websearch", cfg, 1, st))
		var o, tf bytes.Buffer
		if err := sink.WriteJSONL(&o); err != nil {
			t.Fatal(err)
		}
		if err := span.WriteTrace(&tf, sink); err != nil {
			t.Fatal(err)
		}
		return o.Bytes(), tf.Bytes()
	}
	obs1, trace1 := run()
	obs2, trace2 := run()
	if !bytes.Equal(obs1, obs2) {
		t.Error("obs export differs between two same-seed replays")
	}
	if !bytes.Equal(trace1, trace2) {
		t.Error("Perfetto trace differs between two same-seed replays")
	}
}
