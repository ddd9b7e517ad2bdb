package obsname

import (
	"sort"
	"strings"
)

// The metric-name registry. Adding a domain here is a reviewed act:
// it is the list a reader greps to learn what telemetry exists, and it
// is what stands between a typo and a silently forked metric.

// domains registers the first component of every dotted metric/stream
// name.
var domains = map[string]bool{
	"cluster":     true, // rack/driver-level counters
	"demand":      true, // workload demand sampling (internal/workload)
	"des":         true, // kernel counters (des.events, des.heap_depth)
	"energy":      true, // energy telemetry plane (internal/obs/energy)
	"experiment":  true, // per-experiment event stream
	"experiments": true, // experiments registry counters
	"fleet":       true, // fleet hybrid summary streams (internal/cluster/fleet.go)
	"memblade":    true, // memory-blade simulator
	"qlen":        true, // per-resource queue-length series (dynamic suffix)
	"shard":       true, // shard-kernel ShardDiag telemetry
	"slo":         true, // windowed SLO plane (internal/obs/window)
	"trial":       true, // per-trial counters
	"util":        true, // per-resource utilization series (dynamic suffix)
}

// legacyBare registers the pre-scheme single-component names. They are
// baked into exported artifacts, golden files, and the introspection
// endpoints, so renaming them would invalidate every committed
// baseline; the set is frozen — new names must be domain.metric.
var legacyBare = map[string]bool{
	"request":        true, // per-request event stream (cluster driver + rack)
	"requests":       true, // completed-request counter
	"latency_sec":    true, // request-latency histogram
	"qos_violations": true, // QoS-violation counter
	"span":           true, // causal span event stream (internal/obs/span)
	"slo_episode":    true, // QoS episode begin/end events (internal/obs/window)
	"energy_total":   true, // run-total energy event (internal/obs/energy)
	"experiment":     true, // per-experiment progress events
	"probe":          true, // kernel timeline probe stream (internal/des)
}

func domainList() string {
	names := make([]string, 0, len(domains))
	for d := range domains {
		names = append(names, d)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
