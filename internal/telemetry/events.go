package telemetry

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// This file is the structured event log: a bounded, severity-tagged
// ring of noteworthy state transitions — breaker trips, journal
// recovery, needle compactions, drive start/stop — that metrics alone
// cannot narrate. Counters say *how often* something happened; the
// event log says *when, in what order, and why*, which is what an
// operator reconstructing an incident actually needs. Every subsystem
// writes into an *EventLog handed to it by configuration, defaulting
// to the process-wide Events ring; `nasdd` serves the ring at /events
// and `nasdctl events` merges the rings of many drives into one
// fleet-wide timeline.

// Severity ranks an event's urgency.
type Severity uint8

// Severities, in escalation order. Filtering is by minimum severity:
// asking for SevWarn returns warnings and errors.
const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// ParseSeverity maps a severity name back to its value.
func ParseSeverity(s string) (Severity, error) {
	switch strings.ToLower(s) {
	case "info":
		return SevInfo, nil
	case "warn", "warning":
		return SevWarn, nil
	case "error":
		return SevError, nil
	}
	return SevInfo, fmt.Errorf("telemetry: unknown severity %q (want info, warn, or error)", s)
}

// MarshalJSON serializes the severity as its name, so /events output
// reads without a decoder ring.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts either the name or the numeric form.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err == nil {
		v, perr := ParseSeverity(name)
		if perr != nil {
			return perr
		}
		*s = v
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*s = Severity(n)
	return nil
}

// Event is one recorded state transition.
type Event struct {
	// Seq orders events within one ring (monotonic per EventLog).
	Seq      uint64   `json:"seq"`
	UnixNano int64    `json:"unix_ns"`
	Severity Severity `json:"severity"`
	// Subsystem is the emitting layer ("breaker", "journal", "needle",
	// "cheops", "drive"); Name is the transition within it ("open",
	// "recovery", "compaction", "start").
	Subsystem string `json:"subsystem"`
	Name      string `json:"name"`
	// Detail carries the human-readable specifics (which drive, how
	// many records, what cause).
	Detail string `json:"detail,omitempty"`
	// Source labels which drive's ring the event came from; it is blank
	// at emit time and stamped by fleet merging (nasdctl events).
	Source string `json:"source,omitempty"`
}

// Time returns the event timestamp.
func (e *Event) Time() time.Time { return time.Unix(0, e.UnixNano) }

// DefaultEventLogSize is the ring capacity subsystems get by default:
// large enough to span an incident, small enough that the ring is
// always safe to keep resident.
const DefaultEventLogSize = 1024

// EventLog is a bounded ring of recent events. Recording is one
// mutexed slot write; a nil *EventLog swallows emissions, so call
// sites never need nil checks.
type EventLog struct {
	mu     sync.Mutex
	events ring[Event]
	seq    uint64
}

// Events is the process-wide default ring. Subsystems whose
// configuration leaves the event log unset record here, mirroring how
// ProcessSpans collects unrouted spans.
var Events = NewEventLog(DefaultEventLogSize)

// NewEventLog returns a ring holding the most recent capacity events.
func NewEventLog(capacity int) *EventLog {
	return &EventLog{events: newRing[Event](capacity)}
}

// Emit records one event, stamping its sequence number and timestamp
// and evicting the oldest when full. Safe on a nil receiver.
func (l *EventLog) Emit(sev Severity, subsystem, name, detail string) {
	if l == nil {
		return
	}
	now := time.Now().UnixNano()
	l.mu.Lock()
	l.seq++
	l.events.push(&Event{
		Seq: l.seq, UnixNano: now, Severity: sev,
		Subsystem: subsystem, Name: name, Detail: detail,
	})
	l.mu.Unlock()
}

// Emitf is Emit with a formatted detail string.
func (l *EventLog) Emitf(sev Severity, subsystem, name, format string, args ...any) {
	if l == nil {
		return
	}
	l.Emit(sev, subsystem, name, fmt.Sprintf(format, args...))
}

// Recent returns up to n most recent events of at least min severity,
// oldest first. n <= 0 means every retained event.
func (l *EventLog) Recent(n int, min Severity) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if size := l.events.n; n <= 0 || n > size {
		n = size
	}
	// The severity filter applies before the count cap: "the last 10
	// errors", not "the errors among the last 10 events".
	out := make([]Event, 0, n)
	l.events.newest(func(e *Event) bool {
		if e.Severity >= min {
			out = append(out, *e)
		}
		return len(out) < n
	})
	slices.Reverse(out)
	return out
}
