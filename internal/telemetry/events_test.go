package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
)

// TestEventLogRingBounds fills a small ring past capacity and checks
// that only the newest events survive, in order, with monotonic
// sequence numbers.
func TestEventLogRingBounds(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Emitf(SevInfo, "test", "tick", "event %d", i)
	}
	got := l.Recent(0, SevInfo)
	if len(got) != 4 {
		t.Fatalf("Recent returned %d events, want 4", len(got))
	}
	for i, e := range got {
		want := fmt.Sprintf("event %d", 6+i)
		if e.Detail != want {
			t.Fatalf("event %d detail = %q, want %q", i, e.Detail, want)
		}
		if i > 0 && e.Seq != got[i-1].Seq+1 {
			t.Fatalf("sequence gap: %d then %d", got[i-1].Seq, e.Seq)
		}
	}
	// A smaller n takes the tail.
	tail := l.Recent(2, SevInfo)
	if len(tail) != 2 || tail[1].Detail != "event 9" {
		t.Fatalf("Recent(2) = %+v", tail)
	}
}

// TestEventLogSeverityFilter checks the minimum-severity semantics:
// the filter applies before the count cap, so asking for the last 2
// errors skips interleaved info noise.
func TestEventLogSeverityFilter(t *testing.T) {
	l := NewEventLog(64)
	for i := 0; i < 5; i++ {
		l.Emitf(SevInfo, "test", "noise", "info %d", i)
		l.Emitf(SevError, "test", "boom", "error %d", i)
	}
	l.Emit(SevWarn, "test", "wobble", "one warning")

	if n := len(l.Recent(0, SevInfo)); n != 11 {
		t.Fatalf("info+ events = %d, want 11", n)
	}
	if n := len(l.Recent(0, SevWarn)); n != 6 {
		t.Fatalf("warn+ events = %d, want 6", n)
	}
	errs := l.Recent(2, SevError)
	if len(errs) != 2 {
		t.Fatalf("Recent(2, SevError) returned %d events", len(errs))
	}
	if errs[0].Detail != "error 3" || errs[1].Detail != "error 4" {
		t.Fatalf("last two errors = %q, %q", errs[0].Detail, errs[1].Detail)
	}
}

// TestEventLogNilSafe checks that a nil ring swallows emissions and
// reads — call sites must not need nil checks.
func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit(SevError, "test", "x", "into the void")
	l.Emitf(SevError, "test", "x", "also %s", "fine")
	if got := l.Recent(10, SevInfo); got != nil {
		t.Fatalf("nil log Recent = %v", got)
	}
}

// TestSeverityJSONRoundTrip checks severities serialize as names and
// deserialize from either form.
func TestSeverityJSONRoundTrip(t *testing.T) {
	b, err := json.Marshal(SevWarn)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"warn"` {
		t.Fatalf("marshaled severity = %s", b)
	}
	var s Severity
	if err := json.Unmarshal([]byte(`"error"`), &s); err != nil || s != SevError {
		t.Fatalf("unmarshal name: %v, %v", s, err)
	}
	if err := json.Unmarshal([]byte(`1`), &s); err != nil || s != SevWarn {
		t.Fatalf("unmarshal number: %v, %v", s, err)
	}
	if err := json.Unmarshal([]byte(`"catastrophic"`), &s); err == nil {
		t.Fatal("unknown severity name did not error")
	}
}

// TestEventsHandler drives the /events HTTP endpoint: count and
// severity filters, JSON round-trip, and rejection of bad input.
func TestEventsHandler(t *testing.T) {
	l := NewEventLog(16)
	l.Emit(SevInfo, "drive", "start", "drive 1 attached")
	l.Emit(SevError, "cheops", "breaker_open", "drive 2 opened")

	srv := httptest.NewServer(EventsHandler(l))
	defer srv.Close()

	get := func(path string) ([]Event, int) {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != 200 {
			return nil, res.StatusCode
		}
		var events []Event
		if err := json.NewDecoder(res.Body).Decode(&events); err != nil {
			t.Fatal(err)
		}
		return events, res.StatusCode
	}

	all, _ := get("/events")
	if len(all) != 2 || all[0].Name != "start" || all[1].Severity != SevError {
		t.Fatalf("all events = %+v", all)
	}
	errsOnly, _ := get("/events?min=error")
	if len(errsOnly) != 1 || errsOnly[0].Name != "breaker_open" {
		t.Fatalf("error events = %+v", errsOnly)
	}
	if _, code := get("/events?min=nonsense"); code != 400 {
		t.Fatalf("bad severity returned %d, want 400", code)
	}
	one, _ := get("/events?n=1")
	if len(one) != 1 || one[0].Name != "breaker_open" {
		t.Fatalf("n=1 tail = %+v", one)
	}
}
