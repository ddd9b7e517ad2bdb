package obs

import "testing"

// TestEventCopiesFields pins the Event contract: the fields slice is
// only valid during the call, so the sink must copy. Emitters (span
// tracer, cluster trial path) reuse scratch buffers across events.
func TestEventCopiesFields(t *testing.T) {
	s := NewSink()
	scratch := make([]Field, 0, 4)
	scratch = append(scratch, FS("id", "first"), F("v", 1))
	s.Event("stream", 1, scratch...)
	// Reuse the same backing array with different contents.
	scratch = scratch[:0]
	scratch = append(scratch, FS("id", "second"), F("v", 2))
	s.Event("stream", 2, scratch...)

	evs := s.Events()
	if len(evs) != 2 {
		t.Fatalf("retained %d events, want 2", len(evs))
	}
	if got := evs[0].Fields[0].Str; got != "first" {
		t.Fatalf("first event's field mutated to %q — sink aliased the caller's buffer", got)
	}
	if got := evs[1].Fields[0].Str; got != "second" {
		t.Fatalf("second event field = %q, want \"second\"", got)
	}
}

// TestEventArenaDoesNotAlias records across several regrowths of the
// sink's row and value columns and verifies no record's fields were
// overwritten by later appends.
func TestEventArenaDoesNotAlias(t *testing.T) {
	s := NewSink()
	const n = 3000 // the columns regrow from 64 rows and 256 values
	for i := 0; i < n; i++ {
		s.Event("w", float64(i), F("i", float64(i)), F("j", float64(2*i)))
	}
	evs := s.Events()
	if len(evs) != n {
		t.Fatalf("retained %d events, want %d", len(evs), n)
	}
	for i, e := range evs {
		if e.Fields[0].Num != float64(i) || e.Fields[1].Num != float64(2*i) {
			t.Fatalf("event %d fields corrupted: %+v", i, e.Fields)
		}
	}
}
