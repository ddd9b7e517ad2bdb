package energy

import (
	"bufio"
	"encoding/json"
	"io"

	"warehousesim/internal/obs"
	"warehousesim/internal/power"
)

// SchemaEnergy identifies the -energy-out JSONL export.
const SchemaEnergy = "warehousesim-energy/v1"

// SchemaLive identifies the /obs/energy live snapshot document.
const SchemaLive = "warehousesim-energy-live/v1"

// idleMap flattens the typed idle split into a map (sorted keys in the
// JSON encoding), matching the WattsByClass class names.
func idleMap(f power.IdleFractions) map[string]float64 {
	return map[string]float64{
		"cpu": f.CPU, "memory": f.Memory, "disk": f.Disk, "board": f.Board,
		"fan": f.Fan, "flash": f.Flash, "switch": f.Switch,
	}
}

// energyManifest is the export's first line: the window configuration,
// the power model, the run totals, and the proportionality fit. It
// deliberately carries no shard or parallelism count, so the whole
// file — not just a body — is byte-identical across shard counts and
// -par values at the same seed.
type energyManifest struct {
	Type          string             `json:"type"`
	Schema        string             `json:"schema"`
	WidthSec      float64            `json:"width_sec"`
	StaticWatts   float64            `json:"static_watts"`
	IdleFractions map[string]float64 `json:"idle_fractions"`
	Totals        Totals             `json:"totals"`
	Prop          Proportionality    `json:"proportionality"`
}

type windowLine struct {
	Type string `json:"type"`
	Window
}

type curveLine struct {
	Type string `json:"type"`
	CurvePoint
}

// WriteJSONL writes the sealed windows and the proportionality curve
// as JSONL: one energy_manifest line, one window line per sealed
// window in index order, one curve line per proportionality point.
// Maps marshal with sorted keys and the window fold order is fixed, so
// the output is deterministic.
func (c *Collector) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	ws := c.Windows()
	pts := curve(ws)
	if err := enc.Encode(energyManifest{
		Type: "energy_manifest", Schema: SchemaEnergy,
		WidthSec:      c.cfg.WidthSec,
		StaticWatts:   c.cfg.Model.Active.TotalW(),
		IdleFractions: idleMap(c.cfg.Model.Idle),
		Totals:        c.totals(ws),
		Prop:          fit(pts),
	}); err != nil {
		return err
	}
	for _, s := range ws {
		if err := enc.Encode(windowLine{Type: "window", Window: s}); err != nil {
			return err
		}
	}
	for _, p := range pts {
		if err := enc.Encode(curveLine{Type: "curve", CurvePoint: p}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the JSONL export to path.
func (c *Collector) WriteFile(path string) error { return obs.ExportFile(path, c.WriteJSONL) }

// liveDoc is the /obs/energy snapshot: per-part sealed-window
// summaries as of the last seal. Live views are per part — the merged
// truth needs the post-run fold — so a watcher follows each
// partition's recent tail and -energy-out carries the merged record.
type liveDoc struct {
	Schema      string     `json:"schema"`
	WidthSec    float64    `json:"width_sec"`
	StaticWatts float64    `json:"static_watts"`
	Parts       []livePart `json:"parts"`
}

type livePart struct {
	Part    int      `json:"part"`
	Sealed  int      `json:"sealed"`
	Windows []Window `json:"windows"`
}

// liveTail bounds how many recent windows each part contributes.
const liveTail = 32

// LiveSnapshot marshals the parts' recent sealed windows into an
// immutable JSON document for the introspection server. Safe to call
// concurrently with the sources' owners (it only reads their live
// summaries, and derives just the tail). Returns a valid document for
// zero parts.
func LiveSnapshot(parts []*Collector) ([]byte, error) {
	doc := liveDoc{Schema: SchemaLive, Parts: []livePart{}}
	for i, c := range parts {
		if i == 0 {
			cfg := c.Config()
			doc.WidthSec = cfg.WidthSec
			doc.StaticWatts = cfg.Model.Active.TotalW()
		}
		sums := c.src.LiveSummaries()
		sealed := len(sums)
		if sealed > liveTail {
			sums = sums[sealed-liveTail:]
		}
		ws := c.derive(sums)
		if ws == nil {
			ws = []Window{}
		}
		doc.Parts = append(doc.Parts, livePart{Part: i, Sealed: sealed, Windows: ws})
	}
	return json.Marshal(doc)
}
