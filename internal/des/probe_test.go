package des

import (
	"bytes"
	"testing"

	"warehousesim/internal/obs"
)

// busySim drives one single-server resource with a deterministic
// back-to-back job stream for the given span.
func busySim(rec obs.Recorder, interval Time) *Sim {
	sim := NewSim()
	r := NewResource(sim, "cpu", 1)
	var next Action
	next = func() {
		if sim.Now() < 10 {
			r.Submit(0.5, next)
		}
	}
	r.Submit(0.5, next)
	p := NewProbes(sim, rec, interval)
	p.Watch(r)
	p.Start()
	sim.Run(10)
	return sim
}

func TestProbesEmitTimelines(t *testing.T) {
	sink := obs.NewSink()
	busySim(sink, 1)
	for _, name := range []string{"des.heap_depth", "des.events_per_sec", "util.cpu", "qlen.cpu"} {
		s := sink.SeriesByName(name)
		if s == nil {
			t.Fatalf("series %q missing (have %v)", name, sink.SeriesNames())
		}
		if len(s.Points) < 9 {
			t.Fatalf("series %q has %d points, want >= 9 over a 10 s run at 1 s interval", name, len(s.Points))
		}
	}
	// The resource is saturated: every full interval must report
	// utilization 1 and a positive event rate.
	util := sink.SeriesByName("util.cpu")
	for _, p := range util.Points {
		if p.V < 0.999 || p.V > 1.001 {
			t.Fatalf("util.cpu at t=%g is %g, want 1 (resource is saturated)", p.T, p.V)
		}
	}
	for _, p := range sink.SeriesByName("des.events_per_sec").Points {
		if p.V <= 0 {
			t.Fatalf("events/sec at t=%g is %g, want > 0", p.T, p.V)
		}
	}
}

func TestProbesDoNotPerturbModel(t *testing.T) {
	plain := busySim(nil, 1)
	probed := busySim(obs.NewSink(), 1)
	// Probe ticks add events, but the model's own completions must be
	// unchanged: 10s / 0.5s = 20 job completions either way. The probed
	// run fires exactly its extra tick events (one per second plus the
	// cancelled-at-horizon remainder).
	if plain.Fired() != 20 {
		t.Fatalf("uninstrumented run fired %d events, want 20", plain.Fired())
	}
	if probed.Fired() != 30 {
		t.Fatalf("instrumented run fired %d events, want 30 (20 jobs + 10 ticks)", probed.Fired())
	}
}

func TestProbesDeterministic(t *testing.T) {
	export := func() []byte {
		sink := obs.NewSink()
		busySim(sink, 0.25)
		var buf bytes.Buffer
		if err := sink.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(export(), export()) {
		t.Fatal("two identical probed runs exported different bytes")
	}
}

func TestProbesStop(t *testing.T) {
	sink := obs.NewSink()
	sim := NewSim()
	p := NewProbes(sim, sink, 1)
	p.Start()
	sim.Run(3)
	p.Stop()
	n := len(sink.SeriesByName("des.heap_depth").Points)
	sim.ScheduleAt(10, func() {})
	sim.Run(10)
	if got := len(sink.SeriesByName("des.heap_depth").Points); got != n {
		t.Fatalf("sampler kept ticking after Stop: %d -> %d points", n, got)
	}
}

func TestProbesNilRecorderIsInert(t *testing.T) {
	sim := NewSim()
	p := NewProbes(sim, nil, 1)
	p.Start()
	sim.ScheduleAt(5, func() {})
	sim.Run(5)
	if sim.Fired() != 1 {
		t.Fatalf("nil-recorder probes scheduled ticks: fired=%d, want 1", sim.Fired())
	}
}

func TestResourceClass(t *testing.T) {
	for name, want := range map[string]string{
		"cpu.e0.b1":   "cpu",
		"memblade.e3": "memblade",
		"san":         "san",
		"net":         "net",
	} {
		if got := resourceClass(name); got != want {
			t.Errorf("resourceClass(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestProbesOnUtil: the typed utilization feed sees every watched
// resource once per tick, classed, with exactly the value of its
// "util." gauge.
func TestProbesOnUtil(t *testing.T) {
	sink := obs.NewSink()
	sim := NewSim()
	busy := NewResource(sim, "cpu.e0.b1", 2)
	idle := NewResource(sim, "san", 1)
	busy.Submit(1.5, func() {})
	p := NewProbes(sim, sink, 1)
	p.Watch(busy, idle)
	type sample struct {
		class string
		at, v float64
	}
	var got []sample
	p.OnUtil = func(class string, at, v float64) { got = append(got, sample{class, at, v}) }
	p.Start()
	sim.Run(2.5)
	want := []sample{{"cpu", 1, 0.5}, {"san", 1, 0}, {"cpu", 2, 0.25}, {"san", 2, 0}}
	if len(got) != len(want) {
		t.Fatalf("OnUtil samples = %v, want %v", got, want)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("sample %d = %v, want %v", i, got[i], w)
		}
	}
	for _, name := range []string{"util.cpu.e0.b1", "util.san"} {
		class := resourceClass(name[len("util."):])
		var fed []float64
		for _, s := range got {
			if s.class == class {
				fed = append(fed, s.v)
			}
		}
		pts := sink.SeriesByName(name).Points
		if len(pts) != len(fed) {
			t.Fatalf("%s has %d points, OnUtil saw %d", name, len(pts), len(fed))
		}
		for i, pt := range pts {
			if pt.V != fed[i] {
				t.Errorf("%s point %d = %g, OnUtil saw %g", name, i, pt.V, fed[i])
			}
		}
	}
}

// discardRecorder is an enabled recorder that keeps nothing, so an
// allocation measured through it is the emitter's own.
type discardRecorder struct{ obs.Nop }

func (discardRecorder) Enabled() bool { return true }

// TestProbeTickAllocatesNothing: a probe tick over watched resources
// emits its util. and qlen. gauges without allocating — the gauge names
// are fixed at Watch, so a tick must not build them again.
func TestProbeTickAllocatesNothing(t *testing.T) {
	sim := NewSim()
	cpu := NewResource(sim, "cpu.e0.b0", 2)
	net := NewResource(sim, "net.e0.b0", 1)
	p := NewProbes(sim, discardRecorder{}, 1)
	p.Watch(cpu, net)
	p.Start()
	sim.Run(1) // the first tick; the heap holds the next one from here on
	if allocs := testing.AllocsPerRun(100, func() { sim.Run(sim.Now() + 1) }); allocs != 0 {
		t.Fatalf("one probe tick over two watched resources allocates %v times, want 0", allocs)
	}
}
