package des

import (
	"bytes"
	"slices"
	"testing"

	"warehousesim/internal/obs"
)

// busySim drives one single-server resource with a deterministic
// back-to-back job stream for the given span.
func busySim(rec *obs.Sink, interval Time) *Sim {
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

// TestPendingExcludesRunningEvent: Pending read inside an action, and
// the des.heap_depth gauge a probe tick emits, count the events still
// queued and never the one running, whose slot at the heap root its
// action may not have taken yet.
func TestPendingExcludesRunningEvent(t *testing.T) {
	sim := NewSim()
	var read []int
	for _, at := range []Time{1, 2, 3} {
		sim.ScheduleAt(at, func() { read = append(read, sim.Pending()) })
	}
	// The first event reads again after scheduling a successor at 10.
	sim.ScheduleAt(0.5, func() {
		read = append(read, sim.Pending())
		sim.ScheduleAt(10, func() {})
		read = append(read, sim.Pending())
	})
	sink := obs.NewSink()
	NewProbes(sim, sink, 1.25).Start()
	sim.Run(4)
	// Each read also counts the probe's next tick.
	if want := []int{4, 5, 4, 3, 2}; !slices.Equal(read, want) {
		t.Errorf("Pending inside actions = %v, want %v", read, want)
	}
	// Ticks at 1.25, 2.5 and 3.75 each see the model events left
	// (2 and 3 and 10, then 3 and 10, then 10), not themselves.
	var depth []float64
	for _, p := range sink.SeriesByName("des.heap_depth").Points {
		depth = append(depth, p.V)
	}
	if want := []float64{3, 2, 1}; !slices.Equal(depth, want) {
		t.Errorf("des.heap_depth = %v, want %v", depth, want)
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

// TestProbesBeforeFirstTickAddNoSeries: series are created at the
// first tick, as the named gauge calls would create them, so a run
// shorter than one interval exports none.
func TestProbesBeforeFirstTickAddNoSeries(t *testing.T) {
	sink := obs.NewSink()
	sim := NewSim()
	p := NewProbes(sim, sink, 1)
	p.Watch(NewResource(sim, "cpu", 1))
	p.Start()
	sim.Run(0.5)
	if names := sink.SeriesNames(); len(names) != 0 {
		t.Fatalf("series before the first tick: %v", names)
	}
	sim.Run(1)
	if names := sink.SeriesNames(); len(names) != 4 {
		t.Fatalf("series after the first tick: %v, want the two kernel and two resource gauges", names)
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
	feed := &utilLog{}
	p.OnUtil = feed
	p.Start()
	sim.Run(2.5)
	got := feed.samples
	want := []utilSample{{"cpu", 1, 0.5}, {"san", 1, 0}, {"cpu", 2, 0.25}, {"san", 2, 0}}
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

// utilLog is a UtilFeed that logs every sample under its class name.
type utilLog struct {
	classes []string
	samples []utilSample
}

type utilSample struct {
	class string
	at, v float64
}

func (l *utilLog) Class(name string) int {
	l.classes = append(l.classes, name)
	return len(l.classes) - 1
}

func (l *utilLog) SampleUtil(class int, at, v float64) {
	l.samples = append(l.samples, utilSample{l.classes[class], at, v})
}

// TestProbeTickAllocatesNothing: a probe tick over watched resources
// emits its util. and qlen. gauges without allocating — the series
// handles are resolved at the first tick, so a later tick builds no
// name and looks none up. The sink's amortised series growth stays
// under one allocation per tick.
func TestProbeTickAllocatesNothing(t *testing.T) {
	sim := NewSim()
	cpu := NewResource(sim, "cpu.e0.b0", 2)
	net := NewResource(sim, "net.e0.b0", 1)
	p := NewProbes(sim, obs.NewSink(), 1)
	p.Watch(cpu, net)
	p.Start()
	sim.Run(1) // the first tick; the heap holds the next one from here on
	if allocs := testing.AllocsPerRun(100, func() { sim.Run(sim.Now() + 1) }); allocs != 0 {
		t.Fatalf("one probe tick over two watched resources allocates %v times, want 0", allocs)
	}
}
