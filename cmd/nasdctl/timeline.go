package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"nasd/internal/telemetry"
)

// This file renders a merged set of span records — pulled from the
// span logs of several drives — as an indented ASCII
// timeline: one line per span, children under parents, siblings in
// start order, with each span's offset from the trace start and its
// duration. Fan-out legs that run much longer than their siblings are
// flagged as stragglers, which is the diagnosis aggregates cannot make
// (a striped read is as slow as its slowest leg).

// mergeSpans combines span record sets from several sources, dropping
// duplicates (the same span fetched twice) by (trace ID, span ID).
func mergeSpans(sets ...[]telemetry.SpanRecord) []telemetry.SpanRecord {
	type key struct{ t, s uint64 }
	seen := make(map[key]bool)
	var out []telemetry.SpanRecord
	for _, set := range sets {
		for _, r := range set {
			k := key{r.TraceID, r.SpanID}
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// stragglerFactor flags a sibling span as a straggler when its duration
// exceeds this multiple of the median of its like-named siblings (and
// there are at least three to compare). stragglerMinExcess additionally
// requires the absolute gap over the median to be meaningful, so
// sub-microsecond jitter between tiny spans never flags.
const (
	stragglerFactor           = 2.0
	stragglerMinExcess        = 50 * time.Microsecond
	stragglerMinGroup         = 3
	stragglerAnnotationSuffix = "<-- straggler"
)

// writeTimeline renders the spans of one trace as an indented tree.
// Spans whose parent is missing from the set (a layer whose log wrapped
// or was not fetched) are promoted to roots, so partial merges still
// render. Spans from other traces in the input are ignored when
// traceID is non-zero.
func writeTimeline(w io.Writer, traceID uint64, spans []telemetry.SpanRecord) {
	var set []telemetry.SpanRecord
	for _, r := range spans {
		if traceID == 0 || r.TraceID == traceID {
			set = append(set, r)
		}
	}
	if len(set) == 0 {
		fmt.Fprintf(w, "(no spans for trace %d)\n", traceID)
		return
	}
	byID := make(map[uint64]int, len(set))
	for i, r := range set {
		byID[r.SpanID] = i
	}
	children := make(map[uint64][]int)
	var roots []int
	for i, r := range set {
		if r.Parent != 0 {
			if _, ok := byID[r.Parent]; ok {
				children[r.Parent] = append(children[r.Parent], i)
				continue
			}
		}
		roots = append(roots, i)
	}
	byStart := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool {
			if set[idx[a]].StartNS != set[idx[b]].StartNS {
				return set[idx[a]].StartNS < set[idx[b]].StartNS
			}
			return set[idx[a]].SpanID < set[idx[b]].SpanID
		})
	}
	byStart(roots)
	for _, c := range children {
		byStart(c)
	}

	t0 := set[roots[0]].StartNS
	var tEnd int64
	for _, r := range set {
		if r.StartNS < t0 {
			t0 = r.StartNS
		}
		if r.EndNS > tEnd {
			tEnd = r.EndNS
		}
	}
	fmt.Fprintf(w, "trace %d: %d spans, %s total\n",
		set[0].TraceID, len(set), time.Duration(tEnd-t0).Round(time.Microsecond))

	var render func(idx []int, depth int)
	render = func(idx []int, depth int) {
		slow := stragglers(set, idx)
		for n, i := range idx {
			r := set[i]
			line := fmt.Sprintf("%s%s", strings.Repeat("  ", depth), r.Name)
			notes := make([]string, 0, len(r.Annotations)+1)
			for _, a := range r.Annotations {
				notes = append(notes, a.Key+"="+a.Value)
			}
			if slow[n] {
				notes = append(notes, stragglerAnnotationSuffix)
			}
			fmt.Fprintf(w, "  +%-10s %-40s %10s  %s\n",
				time.Duration(r.StartNS-t0).Round(time.Microsecond),
				line,
				r.Dur().Round(time.Microsecond),
				strings.Join(notes, " "))
			render(children[r.SpanID], depth+1)
		}
	}
	render(roots, 0)
}

// stragglers reports which of a sibling group's spans run much longer
// than their peers. Only like-named siblings are compared (the parallel
// legs of one fan-out; a read is not a straggler for being slower than
// the getattr beside it), groups of fewer than stragglerMinGroup
// have no basis for comparison, and the gap over the median must clear
// both a relative factor and an absolute floor.
func stragglers(set []telemetry.SpanRecord, idx []int) []bool {
	out := make([]bool, len(idx))
	byName := make(map[string][]int)
	for n, i := range idx {
		byName[set[i].Name] = append(byName[set[i].Name], n)
	}
	for _, group := range byName {
		if len(group) < stragglerMinGroup {
			continue
		}
		durs := make([]int64, len(group))
		for g, n := range group {
			durs[g] = int64(set[idx[n]].Dur())
		}
		sorted := append([]int64(nil), durs...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		median := sorted[len(sorted)/2]
		if median <= 0 {
			continue
		}
		for g, n := range group {
			d := durs[g]
			if float64(d) > stragglerFactor*float64(median) && time.Duration(d-median) >= stragglerMinExcess {
				out[n] = true
			}
		}
	}
	return out
}
