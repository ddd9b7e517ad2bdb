package experiments

import (
	"fmt"

	"warehousesim/internal/cluster"
	"warehousesim/internal/core"
	"warehousesim/internal/fanout"
	"warehousesim/internal/obs"
	"warehousesim/internal/platform"
	"warehousesim/internal/workload"
)

// planeCell is one (design, profile) point of a plane sweep: its seeded
// DES run at the design's adaptive operating point and, once run, the
// sink that run recorded into and its result.
type planeCell struct {
	design  core.Design
	profile workload.Profile
	cfg     cluster.Config
	opts    cluster.SimOptions
	sink    *obs.Sink
	res     cluster.Result
}

// planeSweep runs the design x profile grid the ext-slo, ext-energy and
// ext-critpath extensions share — desk, emb1 and N2 against websearch,
// webmail and ytube, each a seed-9 DES run with a 5 s warm-up, a 30 s
// measurement and at most 512 clients, recording into a fresh sink —
// across SweepParallelism workers. plane adds the experiment's options
// to a cell's run; row renders a finished cell. Rows join r in cell
// order, so the report is the same at any worker count.
func planeSweep(r *Report, plane func(d core.Design, opts *cluster.SimOptions) error, row func(c *planeCell) (string, error)) error {
	designs := []core.Design{
		core.BaselineDesign(platform.Desk()),
		core.BaselineDesign(platform.Emb1()),
		core.NewN2(),
	}
	profiles := []workload.Profile{
		workload.WebsearchProfile(),
		workload.WebmailProfile(),
		workload.YtubeProfile(),
	}
	// The evaluator caches flash hit rates in a map, so every call into
	// it stays on this goroutine; only the DES runs fan out.
	ev := core.NewEvaluator()
	cells := make([]planeCell, 0, len(designs)*len(profiles))
	for _, d := range designs {
		for _, p := range profiles {
			cfg, err := ev.ClusterConfig(d, p)
			if err != nil {
				return err
			}
			opts := cluster.SimOptions{Seed: 9, WarmupSec: 5, MeasureSec: 30, MaxClients: 512}
			if err := plane(d, &opts); err != nil {
				return err
			}
			cells = append(cells, planeCell{design: d, profile: p, cfg: cfg, opts: opts})
		}
	}

	rows := make([]string, len(cells))
	i, err := fanout.Ordered(SweepParallelism(), len(cells), func(_, i int) (err error) {
		c := cells[i] // a copy, so the sink and result die with the row
		c.sink = obs.NewSink()
		c.opts.Obs = c.sink
		if c.res, err = c.cfg.Simulate(workload.FixedGenerator{P: c.profile}, c.opts); err != nil {
			return err
		}
		rows[i], err = row(&c)
		return err
	}, nil)
	if err != nil {
		return fmt.Errorf("%s/%s: %w", cells[i].design.Name, cells[i].profile.Name, err)
	}
	r.Lines = append(r.Lines, rows...)
	return nil
}
