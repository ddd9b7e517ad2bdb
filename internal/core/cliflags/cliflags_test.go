package cliflags

import (
	"flag"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"warehousesim/internal/cluster"
)

// flagGroups is every validated group, registered on one FlagSet the
// way the mains register them.
type flagGroups struct {
	rack   *Rack
	fleet  *Fleet
	slo    *SLO
	energy *Energy
}

// parseSet builds a quiet FlagSet with every validated group
// registered and parses args.
func parseSet(args ...string) (flagGroups, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	g := flagGroups{rack: AddRack(fs)}
	g.fleet = AddFleet(fs, g.rack)
	g.slo = AddSLO(fs)
	g.energy = AddEnergy(fs)
	return g, fs.Parse(args)
}

// newSet is parseSet for arguments that must parse.
func newSet(t *testing.T, args ...string) (*Rack, *SLO, *Energy) {
	t.Helper()
	g, err := parseSet(args...)
	if err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return g.rack, g.slo, g.energy
}

func TestValidateFlagCombinations(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; "" = valid
	}{
		{"empty", nil, ""},
		{"slo-out-implies-window", []string{"-slo-out", "x.jsonl"}, ""},
		{"slo-out-with-window", []string{"-slo-window", "2s", "-slo-out", "x.jsonl"}, ""},
		{"slo-out-with-explicit-zero", []string{"-slo-window", "0s", "-slo-out", "x.jsonl"}, "-slo-window 0"},
		{"slo-explicit-zero-alone", []string{"-slo-window", "0s"}, ""},
		{"energy-out-alone", []string{"-energy-out", "e.jsonl"}, "requires -energy-window"},
		{"energy-out-with-window", []string{"-energy-window", "1s", "-energy-out", "e.jsonl"}, ""},
		{"energy-window-alone", []string{"-energy-window", "1s"}, ""},
		// -shards and -shard-diag are gone: both fail to parse.
		{"shard-diag-without-shards", []string{"-shard-diag", "d.jsonl"}, "not defined: -shard-diag"},
		{"shard-diag-with-shards", []string{"-shards", "2", "-shard-diag", "d.jsonl"}, "not defined: -shards"},
		{"boards-list", []string{"-boards", "8,2,2,2"}, ""},
		{"boards-garbage", []string{"-boards", "many"}, "-boards"},
		{"boards-list-garbage", []string{"-boards", "8,x,2"}, "entry 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := parseSet(tc.args...)
			if err == nil {
				err = Validate(g.rack, g.fleet, g.slo, g.energy)
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate(%v) = %v, want nil", tc.args, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate(%v) accepted, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate(%v) = %q, want substring %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

func TestSLOConventions(t *testing.T) {
	_, slo, _ := newSet(t, "-slo-out", "x.jsonl")
	if got := slo.WindowSec(); got != 1 {
		t.Errorf("-slo-out alone: WindowSec = %g, want the implied 1s", got)
	}
	if !slo.Enabled() || slo.OutPath() != "x.jsonl" {
		t.Errorf("Enabled %v OutPath %q", slo.Enabled(), slo.OutPath())
	}
	_, slo, _ = newSet(t, "-slo-window", "250ms")
	if got := slo.WindowSec(); got != 0.25 {
		t.Errorf("WindowSec = %g, want 0.25", got)
	}
	_, slo, _ = newSet(t)
	if slo.Enabled() {
		t.Error("SLO enabled with no flags")
	}
}

func TestEnergyAccessors(t *testing.T) {
	_, _, en := newSet(t, "-energy-window", "500ms", "-energy-out", "e.jsonl")
	if got := en.WindowSec(); got != 0.5 {
		t.Errorf("WindowSec = %g, want 0.5", got)
	}
	if !en.Enabled() || en.OutPath() != "e.jsonl" {
		t.Errorf("Enabled %v OutPath %q", en.Enabled(), en.OutPath())
	}
	_, _, en = newSet(t)
	if en.Enabled() || en.WindowSec() != 0 || en.OutPath() != "" {
		t.Error("Energy group not zero-valued with no flags")
	}
}

func TestRackAccessors(t *testing.T) {
	rk, _, _ := newSet(t, "-enclosures", "8", "-boards", "2", "-clients-per-board", "3")
	if !rk.Enabled() {
		t.Fatal("rack model not selected")
	}
	topo := rk.Topology()
	if topo == nil || topo.Shards != 0 || topo.Enclosures != 8 || topo.BoardsPerEnclosure != 2 || topo.ClientsPerBoard != 3 {
		t.Errorf("topology %+v", topo)
	}
	rk, _, _ = newSet(t)
	if rk.Enabled() || rk.Topology() != nil {
		t.Error("flat model should have nil topology")
	}
}

// TestRackBoardsList: a comma-list -boards yields a heterogeneous
// topology and sizes -enclosures from the list length — unless
// -enclosures was passed explicitly, which wins (and lets Normalize
// report the length mismatch).
func TestRackBoardsList(t *testing.T) {
	rk, _, _ := newSet(t, "-boards", "8,2,2,2")
	topo := rk.Topology()
	if topo == nil || topo.Enclosures != 4 || len(topo.Boards) != 4 ||
		topo.Boards[0] != 8 || topo.Boards[3] != 2 || topo.BoardsPerEnclosure != 0 {
		t.Errorf("list topology %+v", topo)
	}
	rk, _, _ = newSet(t, "-boards", "8,2", "-enclosures", "3")
	if topo := rk.Topology(); topo.Enclosures != 3 || len(topo.Boards) != 2 {
		t.Errorf("explicit -enclosures overridden: %+v", topo)
	}
	// Uniform single count: the pre-list behavior, untouched.
	rk, _, _ = newSet(t, "-boards", " 6 ")
	if topo := rk.Topology(); topo.BoardsPerEnclosure != 6 || topo.Boards != nil {
		t.Errorf("uniform topology %+v", topo)
	}
}

// TestRackModeSelection: the model follows the flags on the command
// line. No rack or fleet flag runs flat; -enclosures or -boards alone
// selects the rack (the other keeps its default); a -boards list sizes
// the enclosures; -racks selects the fleet, whose template leaves
// Shards 0 for Normalize to resolve to one heap; -shards no longer
// parses.
func TestRackModeSelection(t *testing.T) {
	cases := []struct {
		name        string
		args        []string
		rack, fleet bool
		enclosures  int
		boards      []int // per-enclosure board counts
	}{
		{name: "flat", args: nil},
		{name: "clients-only-is-flat", args: []string{"-clients-per-board", "2"}},
		{name: "enclosures-alone", args: []string{"-enclosures", "3"}, rack: true, enclosures: 3, boards: []int{4, 4, 4}},
		{name: "boards-alone", args: []string{"-boards", "2"}, rack: true, enclosures: 4, boards: []int{2, 2, 2, 2}},
		{name: "boards-list", args: []string{"-boards", "8,2,2"}, rack: true, enclosures: 3, boards: []int{8, 2, 2}},
		{name: "fleet", args: []string{"-racks", "5", "-hot-racks", "1"}, fleet: true, enclosures: 4, boards: []int{4, 4, 4, 4}},
		{name: "fleet-sized", args: []string{"-racks", "5", "-boards", "2", "-enclosures", "2"}, rack: true, fleet: true, enclosures: 2, boards: []int{2, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := parseSet(tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(g.rack, g.fleet, g.slo, g.energy); err != nil {
				t.Fatal(err)
			}
			rack, fleet := g.rack.Topology(), g.fleet.Topology()
			if (rack != nil) != tc.rack || (fleet != nil) != tc.fleet {
				t.Fatalf("rack %v fleet %v, want rack %v fleet %v", rack != nil, fleet != nil, tc.rack, tc.fleet)
			}
			var topo cluster.Topology
			switch {
			case fleet != nil:
				topo = fleet
			case rack != nil:
				topo = rack
			default:
				return
			}
			got, err := cluster.SimOptions{MeasureSec: 1, MaxClients: 1, Topology: topo}.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			nr, ok := got.Topology.(*cluster.ShardedTopology)
			if ft, isFleet := got.Topology.(*cluster.FleetTopology); isFleet {
				nr, ok = &ft.Rack, true
			}
			if !ok {
				t.Fatalf("Normalize returned a %T topology", got.Topology)
			}
			var boards []int
			for e := 0; e < nr.Enclosures; e++ {
				if len(nr.Boards) > 0 {
					boards = append(boards, nr.Boards[e])
				} else {
					boards = append(boards, nr.BoardsPerEnclosure)
				}
			}
			if nr.Enclosures != tc.enclosures || !slices.Equal(boards, tc.boards) || nr.Shards != 1 {
				t.Errorf("normalized rack %d enclosures, boards %v, %d shards; want %d, %v, 1",
					nr.Enclosures, boards, nr.Shards, tc.enclosures, tc.boards)
			}
		})
	}
	if _, err := parseSet("-shards", "2"); err == nil || !strings.Contains(err.Error(), "not defined: -shards") {
		t.Errorf("-shards parsed: %v", err)
	}
}

// FuzzRackFlags parses fuzzed rack, fleet and window flag values on a
// fresh FlagSet with the four validated groups registered, the way the
// mains do. Validate, Topology and RackTemplate must never panic; a
// -boards value Validate accepts must round-trip through parseBoards
// and reach the rack template unchanged; and every topology the groups
// build is either rejected by SimOptions.Normalize or normalized to a
// rack within the 16,384-board cap.
func FuzzRackFlags(f *testing.F) {
	f.Add("8,2,2,2", "", 0, false, 0, 0, "1s", "1s")
	f.Add("4,,2", "0", 3, true, 4, 1, "", "500ms")
	f.Add("99999999999", "", 4, true, 0, 0, "0s", "")
	f.Add("4", "-1", 2, true, 8, 0, "-1s", "2s")
	f.Add("16384", "3,9", 1, true, 16, 2, "250ms", "0")
	f.Fuzz(func(t *testing.T, boards, hotSet string, enclosures int, setEnclosures bool, racks, hotRacks int, sloWindow, energyWindow string) {
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		sh := AddRack(fs)
		fl := AddFleet(fs, sh)
		slo := AddSLO(fs)
		en := AddEnergy(fs)
		args := []string{
			"-boards=" + boards, "-hot-set=" + hotSet,
			"-racks=" + strconv.Itoa(racks), "-hot-racks=" + strconv.Itoa(hotRacks),
			"-slo-window=" + sloWindow, "-energy-window=" + energyWindow,
		}
		if setEnclosures {
			args = append(args, "-enclosures="+strconv.Itoa(enclosures))
		}
		if fs.Parse(args) != nil {
			return // a value the flag package itself rejects
		}
		verr := Validate(sh, fl, slo, en)
		tmpl := sh.RackTemplate()
		if verr == nil {
			per, list, err := parseBoards(boards)
			if err != nil {
				t.Fatalf("Validate accepted -boards %q that parseBoards rejects: %v", boards, err)
			}
			if tmpl.BoardsPerEnclosure != per || !slices.Equal(tmpl.Boards, list) {
				t.Fatalf("-boards %q parsed as (%d, %v) but the template holds (%d, %v)", boards, per, list, tmpl.BoardsPerEnclosure, tmpl.Boards)
			}
			canon := strconv.Itoa(per)
			if list != nil {
				parts := make([]string, len(list))
				for i, n := range list {
					parts[i] = strconv.Itoa(n)
				}
				canon = strings.Join(parts, ",")
			}
			per2, list2, err := parseBoards(canon)
			if err != nil || per2 != per || !slices.Equal(list2, list) {
				t.Fatalf("-boards %q does not round-trip: %q parses as (%d, %v, %v), want (%d, %v)", boards, canon, per2, list2, err, per, list)
			}
		}
		var topos []cluster.Topology
		if rack := sh.Topology(); rack != nil {
			topos = append(topos, rack)
		}
		if fleet := fl.Topology(); fleet != nil {
			topos = append(topos, fleet)
		}
		for _, topo := range topos {
			got, err := cluster.SimOptions{MeasureSec: 1, MaxClients: 1, SLOWindowSec: slo.WindowSec(), Topology: topo}.Normalize()
			if err != nil {
				continue
			}
			var rack *cluster.ShardedTopology
			switch nt := got.Topology.(type) {
			case *cluster.ShardedTopology:
				rack = nt
			case *cluster.FleetTopology:
				rack = &nt.Rack
			default:
				t.Fatalf("Normalize returned a %T topology", got.Topology)
			}
			if n := boardCount(rack); n < 1 || n > 1<<14 {
				t.Fatalf("Normalize accepted a rack of %d boards, outside [1, 16384]: %+v", n, rack)
			}
		}
	})
}

// boardCount is a rack's total board count, saturating one past the
// 16,384-board cap instead of overflowing.
func boardCount(t *cluster.ShardedTopology) int {
	const limit = 1<<14 + 1
	if len(t.Boards) > 0 {
		n := 0
		for _, b := range t.Boards {
			n = min(n+min(b, limit), limit)
		}
		return n
	}
	if t.Enclosures < 1 || t.BoardsPerEnclosure < 1 {
		return 0
	}
	if t.BoardsPerEnclosure > limit/t.Enclosures {
		return limit
	}
	return t.Enclosures * t.BoardsPerEnclosure
}
