package cluster

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"warehousesim/internal/fanout"
	"warehousesim/internal/obs"
	"warehousesim/internal/platform"
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// statefulGenerator wraps FixedGenerator with a mutation per Sample, and
// does NOT implement workload.StatelessGenerator — the speculative ramp
// must refuse to parallelize it.
type statefulGenerator struct {
	g workload.FixedGenerator
	n int
}

func (s *statefulGenerator) Profile() workload.Profile { return s.g.Profile() }
func (s *statefulGenerator) Sample(r *stats.RNG) workload.Request {
	s.n++
	return s.g.Sample(r)
}

func parTestOptions() SimOptions {
	return SimOptions{Seed: 11, WarmupSec: 2, MeasureSec: 10, MaxClients: 64}
}

func simulateAt(t *testing.T, par int, rec obs.Recorder) Result {
	t.Helper()
	cfg := Config{Server: platform.Desk()}
	opt := parTestOptions()
	opt.Parallelism = par
	opt.Obs = rec
	if obs.On(rec) {
		opt.TraceEvery = 2
		opt.ProbeIntervalSec = 0.5
	}
	res, err := cfg.Simulate(workload.FixedGenerator{P: workload.WebsearchProfile()}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelSearchMatchesSequential is the determinism contract of
// SimOptions.Parallelism: any worker count yields the same Result.
func TestParallelSearchMatchesSequential(t *testing.T) {
	seq := simulateAt(t, 1, nil)
	for _, par := range []int{2, 4} {
		if got := simulateAt(t, par, nil); !reflect.DeepEqual(got, seq) {
			t.Fatalf("Parallelism=%d result %+v != sequential %+v", par, got, seq)
		}
	}
}

// TestParallelSearchExportIsByteIdentical extends the contract to the
// instrumented replay: the obs export (and with it the span stream that
// feeds trace/attribution artifacts) must not move with Parallelism.
func TestParallelSearchExportIsByteIdentical(t *testing.T) {
	export := func(par int) []byte {
		sink := obs.NewSink()
		simulateAt(t, par, sink)
		var buf bytes.Buffer
		if err := sink.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := export(1)
	if par4 := export(4); !bytes.Equal(seq, par4) {
		t.Fatal("obs export differs between Parallelism=1 and Parallelism=4")
	}
}

// TestStatefulGeneratorStaysSequential: a generator without the
// stateless marker must take the sequential path (speculative trials
// would consume its internal state out of order), so its result matches
// an explicitly sequential run.
func TestStatefulGeneratorStaysSequential(t *testing.T) {
	run := func(par int) (Result, int) {
		cfg := Config{Server: platform.Desk()}
		opt := parTestOptions()
		opt.Parallelism = par
		gen := &statefulGenerator{g: workload.FixedGenerator{P: workload.WebsearchProfile()}}
		res, err := cfg.Simulate(gen, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res, gen.n
	}
	seqRes, seqN := run(1)
	parRes, parN := run(4)
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Fatalf("stateful generator: par result %+v != sequential %+v", parRes, seqRes)
	}
	if seqN != parN {
		t.Fatalf("stateful generator consumed %d samples under par, %d sequential — parallel path must not engage", parN, seqN)
	}
}

// panickingGenerator is a deliberately broken model: a stateless
// generator whose every Sample panics.
type panickingGenerator struct{ workload.FixedGenerator }

func (panickingGenerator) Sample(*stats.RNG) workload.Request { panic("broken model") }

// TestModelPanicIsAnError: a model panic on a pool worker comes back as
// an error naming the ramp trial or the fleet rack it hit, with the
// panic value, instead of killing the process.
func TestModelPanicIsAnError(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	gen := panickingGenerator{workload.FixedGenerator{P: workload.WebsearchProfile()}}
	search := parTestOptions()
	search.Parallelism = 2
	fleet := search
	fleet.Topology = &FleetTopology{Racks: 10, HotSet: []int{3, 7},
		Rack: ShardedTopology{Enclosures: 2, BoardsPerEnclosure: 2, Shards: 1}}
	for _, tc := range []struct {
		name string
		opt  SimOptions
		want string
	}{
		{"search", search, "cluster: ramp trial at 1 clients (seed 12): panic in item 0: broken model"},
		{"fleet", fleet, "cluster: fleet hot rack 3: panic in item 0: broken model"},
	} {
		_, err := cfg.Simulate(gen, tc.opt)
		var pe *fanout.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want a wrapped *fanout.PanicError", tc.name, err)
		}
		if !strings.HasPrefix(err.Error(), tc.want) {
			t.Fatalf("%s: err = %q, want prefix %q", tc.name, err, tc.want)
		}
	}
}

// TestBatchParallelismIgnored: batch jobs are one deterministic run;
// Parallelism must not change them.
func TestBatchParallelismIgnored(t *testing.T) {
	p := workload.MapReduceWCProfile()
	p.JobRequests = 200
	run := func(par int) Result {
		cfg := Config{Server: platform.Desk()}
		opt := SimOptions{Seed: 3, WarmupSec: 1, MeasureSec: 10, MaxClients: 8, Parallelism: par}
		res, err := cfg.Simulate(workload.FixedGenerator{P: p}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(1), run(4); !reflect.DeepEqual(a, b) {
		t.Fatalf("batch result moved with Parallelism: %+v vs %+v", a, b)
	}
}
