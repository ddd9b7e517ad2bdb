package paper

import "testing"

// The published data is the calibration target and report backbone;
// these tests guard its internal consistency.

// systems lists the platform names of Table 2 in the paper's order: the
// key set every per-system table must cover.
var systems = []string{"srvr1", "srvr2", "desk", "mobl", "emb1", "emb2"}

func TestMatricesComplete(t *testing.T) {
	blocks := map[string]map[string]map[string]float64{
		"Perf":       Figure2cPerf,
		"Perf/Inf-$": Figure2cPerfPerInf,
		"Perf/W":     Figure2cPerfPerW,
		"Perf/TCO-$": Figure2cPerfPerTCO,
	}
	for name, block := range blocks {
		for _, w := range Workloads {
			row, ok := block[w]
			if !ok {
				t.Errorf("%s: missing workload %s", name, w)
				continue
			}
			for _, s := range systems {
				if s == "srvr1" && name != "Perf" {
					continue // ratios omit the baseline except in Perf
				}
				if _, ok := row[s]; !ok {
					t.Errorf("%s/%s: missing system %s", name, w, s)
				}
			}
		}
	}
}

func TestPerfBaselineIsUnity(t *testing.T) {
	for _, w := range Workloads {
		if Figure2cPerf[w]["srvr1"] != 1.0 {
			t.Errorf("%s: srvr1 baseline %g", w, Figure2cPerf[w]["srvr1"])
		}
	}
}

func TestPerfValuesDescendByTier(t *testing.T) {
	order := []string{"srvr1", "srvr2", "desk", "emb2"}
	for _, w := range Workloads {
		row := Figure2cPerf[w]
		for i := 0; i+1 < len(order); i++ {
			if row[order[i+1]] > row[order[i]] {
				t.Errorf("%s: %s (%g) above %s (%g)", w,
					order[i+1], row[order[i+1]], order[i], row[order[i]])
			}
		}
	}
}

func TestTable2Complete(t *testing.T) {
	for _, s := range systems {
		if Table2Watt[s] <= 0 {
			t.Errorf("missing watt for %s", s)
		}
		if Table2InfUSD[s] <= 0 {
			t.Errorf("missing inf-$ for %s", s)
		}
	}
}

func TestFigure4bConsistent(t *testing.T) {
	for _, w := range Workloads {
		pcie := Figure4bSlowdown["pcie-x4"][w]
		cbf := Figure4bSlowdown["cbf"][w]
		if pcie <= 0 || cbf <= 0 {
			t.Errorf("%s: missing slowdown entries", w)
		}
		if cbf >= pcie {
			t.Errorf("%s: CBF (%g) not faster than PCIe (%g)", w, cbf, pcie)
		}
	}
}

func TestHeadlineNumbers(t *testing.T) {
	// The abstract's 2X claim lives in Figure5PerfPerTCO's hmean row.
	hm := Figure5PerfPerTCO["hmean"]
	if hm["N2"] != 2.0 || hm["N1"] != 1.5 {
		t.Errorf("headline hmeans drifted: %+v", hm)
	}
	// ytube/mapreduce are the big winners, webmail the loser.
	if Figure5PerfPerTCO["ytube"]["N2"] < 4 {
		t.Error("ytube N2 reading too low")
	}
	if Figure5PerfPerTCO["webmail"]["N1"] >= 1 {
		t.Error("webmail should degrade on N1")
	}
}
