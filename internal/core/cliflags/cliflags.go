// Package cliflags centralizes the flag wiring the cmd/* mains share:
// pprof profile capture, obs recording/export, worker parallelism, the
// live-introspection HTTP endpoint, the rack topology, and the hybrid
// fleet model. Each Add* helper registers its flags on a
// caller-supplied FlagSet (the mains pass flag.CommandLine) and returns
// a handle whose methods apply the conventions that every tool
// previously re-implemented by hand — "-obs-out implies -obs", "-par
// must be >= 1", "-enclosures or -boards picks the rack model" — so the
// five binaries cannot drift apart on them.
package cliflags

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"warehousesim/internal/cluster"
	"warehousesim/internal/obs"
)

// Profiles is the -cpuprofile/-memprofile pair.
type Profiles struct {
	cpu, mem *string
}

// AddProfiles registers the pprof capture flags.
func AddProfiles(fs *flag.FlagSet) *Profiles {
	return &Profiles{
		cpu: fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a pprof heap profile to this file"),
	}
}

// Start begins the requested captures; the returned stop must run at
// exit (it finishes the CPU profile and writes the heap snapshot).
func (p *Profiles) Start() (stop func() error, err error) {
	return obs.StartProfiles(*p.cpu, *p.mem)
}

// Obs is the -obs/-obs-out pair.
type Obs struct {
	on         *bool
	out        *string
	defaultOut string
}

// AddObs registers the recording flags. what finishes the -obs usage
// sentence ("record <what>"); defaultOut is the export path used when
// -obs is set without -obs-out.
func AddObs(fs *flag.FlagSet, what, defaultOut string) *Obs {
	return &Obs{
		on: fs.Bool("obs", false, "record "+what),
		out: fs.String("obs-out", "",
			"write the obs export here (.csv for CSV, else JSONL; implies -obs; default "+defaultOut+")"),
		defaultOut: defaultOut,
	}
}

// Enabled applies the "-obs-out implies -obs" convention and reports
// whether recording was requested. Call after flag parsing.
func (o *Obs) Enabled() bool {
	return *o.on || *o.out != ""
}

// Path resolves the export destination.
func (o *Obs) Path() string {
	if *o.out != "" {
		return *o.out
	}
	return o.defaultOut
}

// Par is the -par worker-count flag.
type Par struct {
	n *int
}

// AddPar registers -par with the given default and usage.
func AddPar(fs *flag.FlagSet, def int, usage string) *Par {
	return &Par{n: fs.Int("par", def, usage)}
}

// Value validates and returns the worker count.
func (p *Par) Value() (int, error) {
	if *p.n < 1 {
		return 0, fmt.Errorf("-par must be >= 1, got %d", *p.n)
	}
	return *p.n, nil
}

// HTTP is the -http live-introspection flag. It only parses the
// address: starting the server is the main's job, via
// introspect.ServeAddr(h.Addr()), so that net/http links only into the
// binaries that opt in (the nohttp boundary, DESIGN.md §11) rather
// than into everything that imports cliflags.
type HTTP struct {
	addr *string
}

// AddHTTP registers -http. snapshot describes what the /obs endpoint
// serves for this tool (e.g. "/obs snapshot with per-experiment
// progress").
func AddHTTP(fs *flag.FlagSet, snapshot string) *HTTP {
	return &HTTP{addr: fs.String("http", "",
		"serve live introspection ("+snapshot+", /debug/pprof) on this address, e.g. :6060")}
}

// Addr returns the parsed -http address ("" when unset). Pass it to
// introspect.ServeAddr from the main.
func (h *HTTP) Addr() string { return *h.addr }

// Rack is the rack-topology flag group: -enclosures and -boards size a
// rack of enclosures (each with its memory blade, all behind one SAN
// array), and -clients-per-board its closed-loop population. Passing
// -enclosures or -boards selects the rack model; with neither, the flat
// single-server model runs.
type Rack struct {
	fs                  *flag.FlagSet
	enclosures, clients *int
	boards              *string
}

// AddRack registers the rack flags.
func AddRack(fs *flag.FlagSet) *Rack {
	return &Rack{
		fs:         fs,
		enclosures: fs.Int("enclosures", 4, "rack enclosures (selects the rack model; with -racks, sizes each rack)"),
		boards: fs.String("boards", "4",
			"server boards per enclosure (selects the rack model; with -racks, sizes each rack): one count for a uniform rack, or a comma list like 8,2,2,2 for a skewed one (sets -enclosures from its length unless -enclosures is given)"),
		clients: fs.Int("clients-per-board", 0,
			"closed-loop clients per board for interactive rack runs (0 = default provisioning; with -enclosures, -boards or -racks)"),
	}
}

// Enabled reports whether the rack model was selected: -enclosures or
// -boards appeared on the command line.
func (r *Rack) Enabled() bool {
	return r.explicitlySet("enclosures") || r.explicitlySet("boards")
}

// parseBoards splits the -boards value: a single count means a uniform
// rack (per > 0, list nil), a comma list a skewed one (list non-nil).
func parseBoards(v string) (per int, list []int, err error) {
	parts := strings.Split(v, ",")
	if len(parts) == 1 {
		per, err = strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return 0, nil, fmt.Errorf("-boards %q: want a board count or a comma list of counts", v)
		}
		return per, nil, nil
	}
	list = make([]int, len(parts))
	for i, p := range parts {
		list[i], err = strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return 0, nil, fmt.Errorf("-boards %q: entry %d is not a board count", v, i)
		}
	}
	return 0, list, nil
}

// explicitlySet reports whether the named flag appeared on the command
// line (as opposed to holding its default).
func (r *Rack) explicitlySet(name string) bool {
	set := false
	r.fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// Topology builds the rack topology, nil when neither -enclosures nor
// -boards was given. A comma-list -boards yields a heterogeneous rack
// and, when -enclosures was not passed explicitly, sizes the rack from
// the list's length. Topology validation happens in
// SimOptions.Normalize; -boards syntax errors are caught by Validate.
func (r *Rack) Topology() *cluster.ShardedTopology {
	if !r.Enabled() {
		return nil
	}
	t := r.RackTemplate()
	return &t
}

// RackTemplate builds the rack topology value regardless of whether the
// rack model was selected — the fleet group uses it as the per-rack
// template, where the rack flags are sizing hints rather than the model
// selector. The template leaves Shards 0, which normalizes to one event
// heap.
func (r *Rack) RackTemplate() cluster.ShardedTopology {
	per, list, err := parseBoards(*r.boards)
	if err != nil {
		per, list = 0, nil // Validate reports the syntax error loudly
	}
	encl := *r.enclosures
	if list != nil && !r.explicitlySet("enclosures") {
		encl = len(list)
	}
	return cluster.ShardedTopology{
		Enclosures:         encl,
		BoardsPerEnclosure: per,
		Boards:             list,
		ClientsPerBoard:    *r.clients,
	}
}

// Validate rejects a malformed -boards list here rather than letting it
// surface as a confusing topology error.
func (r *Rack) Validate() error {
	_, _, err := parseBoards(*r.boards)
	return err
}

// Fleet is the fleet-model flag group: -racks selects the hybrid
// fleet model (0 keeps whatever the rack flags selected),
// -hot-racks/-hot-set choose which racks run full DES, and -balancer
// picks the routing policy. The rack flags
// (-enclosures/-boards/-clients-per-board) size the per-rack template.
type Fleet struct {
	fs       *flag.FlagSet
	racks    *int
	hot      *int
	hotSet   *string
	balancer *string
	rack     *Rack
}

// AddFleet registers the fleet flags. rack supplies the per-rack
// template (and must be registered on the same FlagSet).
func AddFleet(fs *flag.FlagSet, rack *Rack) *Fleet {
	return &Fleet{
		fs:   fs,
		rack: rack,
		racks: fs.Int("racks", 0,
			"run the hybrid fleet model with this many racks (0 = single rack or flat model; hot racks run full DES, cold racks the analytic stand-in)"),
		hot: fs.Int("hot-racks", 0,
			"number of racks simulated with full DES (with -racks; 0 with no -hot-set = fully analytic fleet)"),
		hotSet: fs.String("hot-set", "",
			"comma list of hot rack ids, e.g. 3,9 (with -racks; default 0..hot-racks-1; ordering never changes results)"),
		balancer: fs.String("balancer", "",
			"fleet load-balancer policy: wrr (capacity-weighted round-robin, the default) or least-loaded (with -racks)"),
	}
}

// Enabled reports whether the fleet model was selected.
func (f *Fleet) Enabled() bool { return *f.racks > 0 }

// parseHotSet splits the -hot-set comma list; membership rules are
// validated downstream by FleetTopology.Normalize.
func parseHotSet(v string) ([]int, error) {
	if v == "" {
		return nil, nil
	}
	parts := strings.Split(v, ",")
	ids := make([]int, len(parts))
	for i, p := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("-hot-set %q: entry %d is not a rack id", v, i)
		}
		ids[i] = id
	}
	return ids, nil
}

// Topology builds the fleet topology, nil when -racks was not given.
// The rack flags provide the per-rack template; fleet-shape validation
// happens in SimOptions.Normalize.
func (f *Fleet) Topology() *cluster.FleetTopology {
	if !f.Enabled() {
		return nil
	}
	hotSet, err := parseHotSet(*f.hotSet)
	if err != nil {
		hotSet = nil // Validate reports the syntax error loudly
	}
	return &cluster.FleetTopology{
		Racks:    *f.racks,
		HotRacks: *f.hot,
		HotSet:   hotSet,
		Rack:     f.rack.RackTemplate(),
		Balancer: *f.balancer,
	}
}

// Validate rejects fleet flags without -racks: -hot-racks, -hot-set,
// and -balancer configure the fleet's balancer tier, which only exists
// when -racks selects the fleet model. A malformed -hot-set fails here
// too.
func (f *Fleet) Validate() error {
	if !f.Enabled() {
		if *f.hot != 0 {
			return fmt.Errorf("-hot-racks %d needs the fleet model: pass -racks N (a single rack has no hot/cold split)", *f.hot)
		}
		if *f.hotSet != "" {
			return fmt.Errorf("-hot-set %s needs the fleet model: pass -racks N (a single rack has no hot/cold split)", *f.hotSet)
		}
		if *f.balancer != "" {
			return fmt.Errorf("-balancer %s needs the fleet model: pass -racks N (a single rack has no balancer tier)", *f.balancer)
		}
		return nil
	}
	if _, err := parseHotSet(*f.hotSet); err != nil {
		return err
	}
	return nil
}

// SLO is the -slo-window/-slo-out pair for the windowed SLO metrics
// plane.
type SLO struct {
	fs     *flag.FlagSet
	window *time.Duration
	out    *string
}

// AddSLO registers the windowed-SLO flags.
func AddSLO(fs *flag.FlagSet) *SLO {
	return &SLO{
		fs: fs,
		window: fs.Duration("slo-window", 0,
			"collect windowed SLO metrics over tumbling windows of this simulated-time width, e.g. 1s (implies -obs)"),
		out: fs.String("slo-out", "",
			"write the windowed SLO export here as JSONL (implies -slo-window 1s when -slo-window is unset)"),
	}
}

// WindowSec applies the "-slo-out implies -slo-window 1s" convention
// and returns the window width in simulated seconds (0 = windowing
// off). Call after flag parsing; widths are validated downstream by
// SimOptions.Normalize.
func (s *SLO) WindowSec() float64 {
	if *s.window > 0 {
		return s.window.Seconds()
	}
	if *s.out != "" {
		return 1
	}
	return 0
}

// Enabled reports whether windowed-SLO collection was requested.
func (s *SLO) Enabled() bool { return s.WindowSec() > 0 }

// OutPath returns the -slo-out path ("" when unset).
func (s *SLO) OutPath() string { return *s.out }

// Validate rejects contradictory combinations. "-slo-out implies
// -slo-window 1s" stays (WindowSec), but an explicit "-slo-window 0"
// alongside -slo-out asks for an export of a plane it just disabled —
// that's an error, not a silent empty file.
func (s *SLO) Validate() error {
	if *s.out == "" || *s.window > 0 {
		return nil
	}
	explicitZero := false
	s.fs.Visit(func(f *flag.Flag) {
		if f.Name == "slo-window" {
			explicitZero = true
		}
	})
	if explicitZero {
		return fmt.Errorf("-slo-out %s conflicts with -slo-window 0: the export needs a window width (drop -slo-window to get the 1s default, or pass a positive width)", *s.out)
	}
	return nil
}

// Energy is the -energy-window/-energy-out pair for the time-resolved
// energy plane.
type Energy struct {
	window *time.Duration
	out    *string
}

// AddEnergy registers the energy-plane flags.
func AddEnergy(fs *flag.FlagSet) *Energy {
	return &Energy{
		window: fs.Duration("energy-window", 0,
			"derive watts/joules from recorded utilization over tumbling windows of this simulated-time width, e.g. 1s (implies -obs)"),
		out: fs.String("energy-out", "",
			"write the energy export (windows, totals, proportionality curve) here as JSONL (requires -energy-window)"),
	}
}

// WindowSec returns the energy window width in simulated seconds
// (0 = energy plane off). Widths are validated downstream by
// SimOptions.Normalize.
func (e *Energy) WindowSec() float64 { return e.window.Seconds() }

// Enabled reports whether energy collection was requested.
func (e *Energy) Enabled() bool { return *e.window > 0 }

// OutPath returns the -energy-out path ("" when unset).
func (e *Energy) OutPath() string { return *e.out }

// Validate rejects -energy-out without a window width: unlike -slo-out
// there is no implied default, because the energy integral's resolution
// is a modeling choice the caller must make.
func (e *Energy) Validate() error {
	if *e.out != "" && *e.window <= 0 {
		return fmt.Errorf("-energy-out %s requires -energy-window (e.g. -energy-window 1s): the export needs a window width", *e.out)
	}
	return nil
}

// Validator is any flag group with cross-flag consistency rules.
type Validator interface{ Validate() error }

// Validate runs every group's cross-flag checks and returns the first
// error. Mains call it once after flag.Parse so contradictory flag
// combinations fail loudly instead of being silently ignored.
func Validate(groups ...Validator) error {
	for _, g := range groups {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	return nil
}
