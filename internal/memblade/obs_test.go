package memblade

import (
	"testing"

	"warehousesim/internal/obs"
)

func TestInstrumentedAccessStreams(t *testing.T) {
	s, err := New(Config{FootprintPages: 1000, LocalFraction: 0.1, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	s.Instrument(sink, 10)

	// Sweep the footprint twice: a cold pass (all misses past capacity)
	// then a second pass.
	for pass := 0; pass < 2; pass++ {
		for p := int64(0); p < 1000; p++ {
			s.Access(p, p%7 == 0)
		}
	}
	st := s.stats
	if got := sink.CounterValue("memblade.accesses"); got != st.Accesses {
		t.Fatalf("accesses counter %d != stats %d", got, st.Accesses)
	}
	if got := sink.CounterValue("memblade.misses"); got != st.Misses {
		t.Fatalf("misses counter %d != stats %d", got, st.Misses)
	}
	if got := sink.CounterValue("memblade.writebacks"); got != st.Writebacks {
		t.Fatalf("writebacks counter %d != stats %d", got, st.Writebacks)
	}
	if n := sink.EventCount("memblade.swap"); int64(n) != st.Misses {
		t.Fatalf("swap events %d != misses %d", n, st.Misses)
	}
	hr := sink.SeriesByName("memblade.hit_rate")
	if hr == nil || len(hr.Points) != 200 {
		t.Fatalf("hit-rate series: %+v, want 200 samples (2000 accesses / 10)", hr)
	}
	last := hr.Points[len(hr.Points)-1]
	if want := 1 - st.MissRate(); last.V != want {
		t.Fatalf("final running hit rate %g != 1-missrate %g", last.V, want)
	}
}

func TestInstrumentDetach(t *testing.T) {
	s, err := New(Config{FootprintPages: 100, LocalFraction: 0.5, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	s.Instrument(sink, 1)
	s.Access(1, false)
	s.Instrument(nil, 0)
	s.Access(2, false)
	if got := sink.CounterValue("memblade.accesses"); got != 1 {
		t.Fatalf("detached sim kept recording: accesses = %d, want 1", got)
	}
}
