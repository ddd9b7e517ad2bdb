package shard

import (
	"fmt"
	"math"

	"warehousesim/internal/obs"
)

// summarySchema versions the "shard.summary" event. Version 1 carried
// the single-lookahead fields; version 2 adds the "schema" field
// itself and moves per-pair lookahead reporting to the companion
// "shard.lookahead" events. Every v1 field is still emitted with its
// v1 meaning — lookahead_util is derived from the tightest closed
// pair floor, which for a uniform matrix is v1's single lookahead — so
// v1 consumers keep working and a consumer that needs the per-pair
// plane keys on schema >= 2.
const summarySchema = 2

// EmitDiagnostics writes the per-shard synchronization diagnostics
// into rec after Run has returned: clock-skew and mailbox-depth time
// series (sampled every diagSampleStride windows, T = committed
// simulated time), per-shard summary counters, one "shard.summary"
// event per shard with the round-loop self-telemetry (busy vs blocked
// wall-clock split, EOT slack distribution, lookahead utilization),
// one "shard.lookahead" event per ordered shard pair with a finite
// closed floor (the per-pair lookahead plane: the floor itself and its
// utilization against the source shard's mean committed window), and
// one "shard.traffic" event per ordered shard pair that exchanged
// messages (the cross-shard traffic matrix).
//
// These values measure the engine, not the model — skew, depth, and
// wall-clock timing depend on goroutine scheduling and change run to
// run — so they go into a separate diagnostics sink, never into the
// deterministic export that the shards-1-vs-N byte equivalence gate
// compares.
func (e *Engine) EmitDiagnostics(rec obs.Recorder) {
	if !obs.On(rec) {
		return
	}
	for i, st := range e.ShardStats() {
		s := e.shards[i]
		tag := fmt.Sprintf("s%d", s.id)
		rec.Count("shard.windows."+tag, st.Windows)
		rec.Count("shard.msgs_sent."+tag, st.MsgsSent)
		rec.Count("shard.msgs_recv."+tag, st.MsgsRecv)
		rec.Count("shard.fired."+tag, int64(st.Fired))
		rec.Count("shard.binding_rounds."+tag, st.BindingRounds)
		for _, p := range s.skewSamples {
			rec.Gauge("shard.clock_skew."+tag, p.t, p.v)
		}
		for _, p := range s.depthSamples {
			rec.Gauge("shard.mailbox_depth."+tag, p.t, p.v)
		}
		rec.Event("shard.summary", 0,
			obs.F("schema", summarySchema),
			obs.F("shard", float64(st.Shard)),
			obs.F("windows", float64(st.Windows)),
			obs.F("busy_sec", st.BusySec),
			obs.F("blocked_sec", st.BlockedSec),
			obs.F("binding_rounds", float64(st.BindingRounds)),
			obs.F("slack_mean_sec", st.SlackMeanSec),
			obs.F("slack_p50_sec", st.SlackP50Sec),
			obs.F("slack_p95_sec", st.SlackP95Sec),
			obs.F("slack_max_sec", st.SlackMaxSec),
			obs.F("mean_window_sec", st.MeanWindowSec),
			obs.F("lookahead_util", st.LookaheadUtil))
		for dst, laSec := range st.LookaheadSecTo {
			if dst == st.Shard || math.IsInf(laSec, 1) {
				continue
			}
			util := 0.0
			if st.MeanWindowSec > 0 {
				util = math.Min(1, laSec/st.MeanWindowSec)
			}
			rec.Event("shard.lookahead", 0,
				obs.F("src", float64(st.Shard)),
				obs.F("dst", float64(dst)),
				obs.F("lookahead_sec", laSec),
				obs.F("util", util))
		}
		for dst, n := range st.SentTo {
			if n == 0 {
				continue
			}
			rec.Event("shard.traffic", 0,
				obs.F("src", float64(st.Shard)),
				obs.F("dst", float64(dst)),
				obs.F("msgs", float64(n)))
		}
	}
}
