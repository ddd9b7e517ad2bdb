package memblade

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"warehousesim/internal/obs"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/stats"
	"warehousesim/internal/trace"
)

// TestPinnedReplayExports pins the exact trajectories of instrumented
// replays under each policy, as whtrace -replay runs them, at a local
// fraction small enough that victims are chosen and dirty pages are
// written back. The digests cover the whole obs export and the
// Perfetto trace; any change to residency that moves a hit, a victim or
// a writeback moves the stats or a digest.
func TestPinnedReplayExports(t *testing.T) {
	sp, err := trace.NewSyntheticPages(4000, 0.9, 20, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.CollectPages(sp, stats.NewRNG(8), 400)
	cases := []struct {
		pol        Policy
		st         Stats
		obs, trace string
	}{
		{LRU, Stats{Accesses: 8000, Misses: 4668, Writebacks: 1064, Requests: 400},
			"03dfe31088e2c486709a9ed491d65ce06a881cc7277ccfee70ec5b7bb5e87333",
			"647b6b0cd63ddefba2bb8501698f4d0b536d73f6d5b648b7036b52a373a6b7b4"},
		{Random, Stats{Accesses: 8000, Misses: 5005, Writebacks: 1207, Requests: 400},
			"7a0a73959f668f115f7705956e21b54609c679768ad30034a6a5a90e493b9380",
			"ba6ebc51a50aa6a7257598ab6b885ece1a29e3a64bd0bd1f8e8c39d388f3f68f"},
		{Clock, Stats{Accesses: 8000, Misses: 4772, Writebacks: 1110, Requests: 400},
			"775c939045211511a868c6abbfb3f5a3d17f98a5728ad8310248a71a03e19c4e",
			"0d546be5ce20c0e4a8daf66b5ac8c3d96b74187616e3187b7706ee39b46349dd"},
	}
	for _, c := range cases {
		t.Run(c.pol.String(), func(t *testing.T) {
			s, err := New(Config{FootprintPages: 4000, LocalFraction: 0.05, Policy: c.pol, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			sink := obs.NewSink()
			s.Instrument(sink, 256)
			s.InstrumentSpans(span.NewTracer(sink, 3))
			st := Replay(s, tr)
			if st != c.st {
				t.Errorf("stats = %#v, want %#v", st, c.st)
			}
			if st.Writebacks == 0 || st.Misses <= int64(s.Capacity()) {
				t.Fatalf("replay never wrote back or evicted: %+v", st)
			}
			sink.SetManifest(obs.Manifest{
				Schema:     "warehousesim-obs/v1",
				Workload:   "synthetic",
				System:     "memblade",
				Seed:       9,
				Config:     map[string]string{"local_fraction": "0.05", "policy": c.pol.String()},
				GoVersion:  "pinned",
				SimTimeSec: float64(st.Accesses),
			})
			for _, d := range []struct {
				name, want string
				write      func(io.Writer) error
			}{
				{"obs export", c.obs, sink.WriteJSONL},
				{"Perfetto trace", c.trace, func(w io.Writer) error { return span.WriteTrace(w, sink) }},
			} {
				h := sha256.New()
				if err := d.write(h); err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != d.want {
					t.Errorf("%s sha256 = %s, want %s", d.name, got, d.want)
				}
			}
		})
	}
}
