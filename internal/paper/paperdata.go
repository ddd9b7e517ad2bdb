// Package paper records the published numbers from Lim et al., ISCA 2008
// ("Understanding and Designing New Server Architectures for Emerging
// Warehouse-Computing Environments").
//
// These values are used in exactly two places: as calibration targets for
// the workload demand profiles (cmd/whcalib fits profiles so the model's
// Figure 2(c) "Perf" rows land near the published ones) and as the
// paper-vs-measured columns of the experiment reports (EXPERIMENTS.md).
// They are never consulted by the models themselves at evaluation time.
package paper

// Workloads lists the benchmark names in the paper's order.
var Workloads = []string{"websearch", "webmail", "ytube", "mapred-wc", "mapred-wr"}

// Figure2cPerf is the published relative performance matrix (fraction of
// srvr1), Figure 2(c) "Perf" block.
var Figure2cPerf = map[string]map[string]float64{
	"websearch": {"srvr1": 1.00, "srvr2": 0.68, "desk": 0.36, "mobl": 0.34, "emb1": 0.24, "emb2": 0.11},
	"webmail":   {"srvr1": 1.00, "srvr2": 0.48, "desk": 0.19, "mobl": 0.17, "emb1": 0.11, "emb2": 0.05},
	"ytube":     {"srvr1": 1.00, "srvr2": 0.97, "desk": 0.92, "mobl": 0.95, "emb1": 0.86, "emb2": 0.24},
	"mapred-wc": {"srvr1": 1.00, "srvr2": 0.93, "desk": 0.78, "mobl": 0.72, "emb1": 0.51, "emb2": 0.12},
	"mapred-wr": {"srvr1": 1.00, "srvr2": 0.72, "desk": 0.70, "mobl": 0.54, "emb1": 0.48, "emb2": 0.16},
}

// Figure2cPerfPerInf is the published Perf/Inf-$ block (fraction of srvr1).
var Figure2cPerfPerInf = map[string]map[string]float64{
	"websearch": {"srvr2": 1.33, "desk": 1.39, "mobl": 1.12, "emb1": 1.75, "emb2": 0.93},
	"webmail":   {"srvr2": 0.95, "desk": 0.72, "mobl": 0.55, "emb1": 0.83, "emb2": 0.44},
	"ytube":     {"srvr2": 1.88, "desk": 3.58, "mobl": 3.15, "emb1": 6.29, "emb2": 2.06},
	"mapred-wc": {"srvr2": 1.81, "desk": 3.02, "mobl": 2.41, "emb1": 3.76, "emb2": 1.01},
	"mapred-wr": {"srvr2": 1.41, "desk": 2.72, "mobl": 1.79, "emb1": 3.50, "emb2": 1.40},
}

// Figure2cPerfPerW is the published Perf/W block (fraction of srvr1).
var Figure2cPerfPerW = map[string]map[string]float64{
	"websearch": {"srvr2": 1.07, "desk": 0.90, "mobl": 1.47, "emb1": 1.57, "emb2": 1.03},
	"webmail":   {"srvr2": 0.76, "desk": 0.47, "mobl": 0.73, "emb1": 0.75, "emb2": 0.49},
	"ytube":     {"srvr2": 1.52, "desk": 2.33, "mobl": 4.13, "emb1": 5.66, "emb2": 2.29},
	"mapred-wc": {"srvr2": 1.46, "desk": 1.97, "mobl": 3.15, "emb1": 3.38, "emb2": 1.13},
	"mapred-wr": {"srvr2": 1.14, "desk": 1.77, "mobl": 2.35, "emb1": 3.15, "emb2": 1.57},
}

// Figure2cPerfPerTCO is the published Perf/TCO-$ block (fraction of srvr1).
var Figure2cPerfPerTCO = map[string]map[string]float64{
	"websearch": {"srvr2": 1.20, "desk": 1.13, "mobl": 1.24, "emb1": 1.67, "emb2": 0.97},
	"webmail":   {"srvr2": 0.86, "desk": 0.59, "mobl": 0.62, "emb1": 0.80, "emb2": 0.46},
	"ytube":     {"srvr2": 1.71, "desk": 2.91, "mobl": 3.51, "emb1": 6.00, "emb2": 2.15},
	"mapred-wc": {"srvr2": 1.64, "desk": 2.46, "mobl": 2.68, "emb1": 3.59, "emb2": 1.06},
	"mapred-wr": {"srvr2": 1.28, "desk": 2.21, "mobl": 2.00, "emb1": 3.34, "emb2": 1.47},
}

// Figure2cHMean holds the published harmonic-mean rows per metric.
var Figure2cHMean = map[string]map[string]float64{
	"Perf":       {"srvr2": 0.71, "desk": 0.42, "mobl": 0.38, "emb1": 0.27, "emb2": 0.10},
	"Perf/Inf-$": {"srvr2": 1.39, "desk": 1.62, "mobl": 1.25, "emb1": 2.01, "emb2": 0.91},
	"Perf/W":     {"srvr2": 1.12, "desk": 1.05, "mobl": 1.64, "emb1": 1.81, "emb2": 1.01},
	"Perf/TCO-$": {"srvr2": 1.26, "desk": 1.32, "mobl": 1.40, "emb1": 1.92, "emb2": 0.95},
}

// Table2Watt and Table2InfUSD are the platform summary columns of Table 2.
var (
	Table2Watt   = map[string]float64{"srvr1": 340, "srvr2": 215, "desk": 135, "mobl": 78, "emb1": 52, "emb2": 35}
	Table2InfUSD = map[string]float64{"srvr1": 3294, "srvr2": 1689, "desk": 849, "mobl": 989, "emb1": 499, "emb2": 379}
)

// Figure1 pins (per-server dollars; see internal/cost for the formulas).
var (
	Figure1PCUSD    = map[string]float64{"srvr1": 2464, "srvr2": 1561}
	Figure1TotalUSD = map[string]float64{"srvr1": 5758, "srvr2": 3249}
)

// Figure4bSlowdown is the memory-blade slowdown table (fractional
// slowdown at 25% local memory, random replacement), Figure 4(b).
var Figure4bSlowdown = map[string]map[string]float64{
	"pcie-x4": {"websearch": 0.047, "webmail": 0.002, "ytube": 0.014, "mapred-wc": 0.007, "mapred-wr": 0.007},
	"cbf":     {"websearch": 0.012, "webmail": 0.001, "ytube": 0.004, "mapred-wc": 0.002, "mapred-wr": 0.002},
}

// Figure4c is the memory-provisioning efficiency table (relative to the
// no-sharing baseline), Figure 4(c).
var Figure4c = map[string]map[string]float64{
	"static":  {"Perf/Inf-$": 1.02, "Perf/W": 1.16, "Perf/TCO-$": 1.08},
	"dynamic": {"Perf/Inf-$": 1.06, "Perf/W": 1.16, "Perf/TCO-$": 1.11},
}

// Table3b is the disk/flash efficiency table (relative to the local
// desktop-disk baseline on emb1), Table 3(b).
var Table3b = map[string]map[string]float64{
	"remote-laptop":        {"Perf/Inf-$": 0.93, "Perf/W": 1.00, "Perf/TCO-$": 0.96},
	"remote-laptop+flash":  {"Perf/Inf-$": 0.99, "Perf/W": 1.09, "Perf/TCO-$": 1.04},
	"remote-laptop2+flash": {"Perf/Inf-$": 1.10, "Perf/W": 1.09, "Perf/TCO-$": 1.10},
}

// Figure5PerfPerTCO holds approximate readings of Figure 5's
// Perf/TCO-$ bars (relative to srvr1). The paper prints the figure
// without numeric labels; these values are reconstructed from the
// running text of §3.6 ("2X-3.5X for N1 and 3.5X-6X for N2 on ytube and
// mapreduce; websearch 10%-70%; webmail degradations of 40% for N1 and
// 20% for N2; overall 1.5X to 2.0X").
var Figure5PerfPerTCO = map[string]map[string]float64{
	"websearch": {"N1": 1.10, "N2": 1.70},
	"webmail":   {"N1": 0.60, "N2": 0.80},
	"ytube":     {"N1": 3.50, "N2": 6.00},
	"mapred-wc": {"N1": 2.50, "N2": 4.50},
	"mapred-wr": {"N1": 2.00, "N2": 3.50},
	"hmean":     {"N1": 1.50, "N2": 2.00},
}
