package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// MetricsHandler serves the snapshot produced by snap as JSON, the
// expvar-style endpoint `curl` and dashboards read. snap is called per
// request so the response is always current. With ?partition=P the
// response narrows to that tenant's per-partition metric family,
// re-rooted under "drive.op." (see TenantSnapshot).
func MetricsHandler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := snap()
		if ps := r.URL.Query().Get("partition"); ps != "" {
			p, err := strconv.ParseUint(ps, 10, 16)
			if err != nil {
				http.Error(w, "bad partition: "+err.Error(), http.StatusBadRequest)
				return
			}
			s = TenantSnapshot(s, uint16(p))
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s)
	})
}

// EventsHandler serves the event ring as JSON:
//
//	/events?n=N        the last N events (default 128)
//	/events?min=warn   only events of at least that severity
//
// Responses are capped at MaxTraceResponse entries for the same reason
// /trace is.
func EventsHandler(events *EventLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := clampTraceN(r.URL.Query().Get("n"), 128)
		min := SevInfo
		if ms := r.URL.Query().Get("min"); ms != "" {
			var err error
			if min, err = ParseSeverity(ms); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		out := events.Recent(n, min)
		if out == nil {
			out = []Event{}
		}
		_ = json.NewEncoder(w).Encode(out)
	})
}

// HealthHandler reports liveness and uptime as JSON.
func HealthHandler(started time.Time) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status":   "ok",
			"uptime_s": int64(time.Since(started).Seconds()),
		})
	})
}

// MaxTraceResponse bounds how many entries a single /trace response may
// carry, regardless of the ?n= the caller asked for: the handler
// re-marshals the tail on every request, so an unbounded n would let
// one curl pin the daemon serializing the entire ring.
const MaxTraceResponse = 1024

// RequestSpanPrefix marks the spans that stand for one served request
// each: the drive names its handler span RequestSpanPrefix+op and
// annotates it with status, bytes_in and bytes_out, and "the last N
// requests" (/trace?n=N, the stats RPC's TraceN) is the last N spans
// so named.
const RequestSpanPrefix = "drive."

// TraceHandler serves the span log as JSON. Three modes:
//
//	/trace?n=N          the last N requests served: their handler spans (default 64)
//	/trace?trace=ID     every span recorded for trace ID
//	/trace?spans=N      the last N spans of any kind
//
// Responses are capped at MaxTraceResponse entries.
func TraceHandler(spans *SpanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		q := r.URL.Query()
		var recs []SpanRecord
		if s := q.Get("trace"); s != "" {
			if id, err := strconv.ParseUint(s, 10, 64); err == nil {
				recs = spans.ByTrace(id)
			}
			if len(recs) > MaxTraceResponse {
				recs = recs[:MaxTraceResponse]
			}
		} else if s := q.Get("spans"); s != "" {
			recs = spans.Recent(clampTraceN(s, 64), "")
		} else {
			recs = spans.Recent(clampTraceN(q.Get("n"), 64), RequestSpanPrefix)
		}
		_ = json.NewEncoder(w).Encode(recs)
	})
}

// clampTraceN parses a count query parameter, applying the default and
// the MaxTraceResponse cap.
func clampTraceN(s string, def int) int {
	n := def
	if s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	if n > MaxTraceResponse {
		n = MaxTraceResponse
	}
	return n
}

// NewMux builds the daemon observability mux: /metrics, /healthz,
// (when spans is non-nil) /trace, and (when events is non-nil) the
// /events ring.
func NewMux(snap func() Snapshot, spans *SpanLog, events *EventLog) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(snap))
	mux.Handle("/healthz", HealthHandler(time.Now()))
	if spans != nil {
		mux.Handle("/trace", TraceHandler(spans))
	}
	if events != nil {
		mux.Handle("/events", EventsHandler(events))
	}
	return mux
}
