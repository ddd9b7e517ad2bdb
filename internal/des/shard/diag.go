package shard

import (
	"fmt"

	"warehousesim/internal/obs"
)

// EmitDiagnostics writes the per-shard round-loop diagnostics into rec
// after Run has returned: the counters shard.windows.sN (rounds
// committed), shard.fired.sN (events executed) and shard.msgs_sent.sN
// (cross-shard messages staged), and one "shard.summary" event per
// shard with the wall-clock split of its round loop (busy_sec executing
// windows, blocked_sec flushing to and waiting on peer mailboxes).
//
// These values measure the engine, not the model — the wall-clock split
// depends on goroutine scheduling and changes run to run — so they go
// into a separate diagnostics sink, never into the deterministic
// export.
func (e *Engine) EmitDiagnostics(rec obs.Recorder) {
	if !obs.On(rec) {
		return
	}
	for i, st := range e.ShardStats() {
		tag := fmt.Sprintf("s%d", i)
		rec.Count("shard.windows."+tag, st.Windows)
		rec.Count("shard.msgs_sent."+tag, st.MsgsSent)
		rec.Count("shard.fired."+tag, int64(st.Fired))
		rec.Event("shard.summary", 0,
			obs.F("shard", float64(i)),
			obs.F("busy_sec", st.BusySec),
			obs.F("blocked_sec", st.BlockedSec))
	}
}
