package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"time"

	"nasd/internal/client"
	"nasd/internal/drive"
	"nasd/internal/rpc"
	"nasd/internal/telemetry"
)

// Fleet commands: fleet (one-shot snapshot), top (live refresh), and
// events (merged event timeline). All of them poll every drive named
// by -addr over the stats RPC and aggregate the replies here. The
// paper's scaling argument (Figures 10-12) is about aggregate
// bandwidth across drives; this is the view that shows that aggregate
// as one system.

// fleetDrive is one drive's contribution to a fleet snapshot.
type fleetDrive struct {
	Addr    string             `json:"addr"`
	DriveID uint64             `json:"drive_id"`
	Err     string             `json:"err,omitempty"` // poll failure; Metrics/Events empty
	Metrics telemetry.Snapshot `json:"metrics"`
	Events  []telemetry.Event  `json:"events,omitempty"`
}

// fleetSnapshot is one poll of an entire fleet: the per-drive
// snapshots plus their merge (counters/gauges summed, histograms —
// and their exemplars — merged bucket-by-bucket).
type fleetSnapshot struct {
	UnixNano int64              `json:"unix_ns"`
	Drives   []fleetDrive       `json:"drives"`
	Merged   telemetry.Snapshot `json:"merged"`
}

// buildFleet assembles a fleetSnapshot from per-drive polls, computing
// the merged aggregate. Failed polls (Err set) contribute nothing to
// the merge but stay listed, so a down drive is visible rather than
// silently absent.
func buildFleet(drives []fleetDrive) fleetSnapshot {
	fs := fleetSnapshot{UnixNano: time.Now().UnixNano(), Drives: drives}
	for _, d := range drives {
		if d.Err == "" {
			fs.Merged.Merge(d.Metrics)
		}
	}
	return fs
}

// fleetClients returns one client per -addr entry. Index 0 reuses the
// command's existing connection; the rest are dialed here. The returned
// cleanup closes only the extra connections (the caller closes cli).
func (c *ctl) fleetClients() ([]*client.Drive, func(), error) {
	clis := []*client.Drive{c.cli}
	var extra []*client.Drive
	closeAll := func() {
		for _, cli := range extra {
			cli.Close()
		}
	}
	for _, addr := range c.addrs[1:] {
		conn, err := rpc.DialTCP(addr)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("dial %s: %v", addr, err)
		}
		cli := client.New(conn, c.driveID, newClientID(),
			client.WithSecurity(c.secure),
			client.WithRetry(client.RetryPolicy{}),
			client.WithDialer(func() (rpc.Conn, error) { return rpc.DialTCP(addr) }))
		extra = append(extra, cli)
		clis = append(clis, cli)
	}
	return clis, closeAll, nil
}

// pollFleet takes one stats sample from every drive. A drive that
// fails to answer is reported in its row's Err rather than failing the
// whole poll — a fleet view that dies when one drive does would be
// useless exactly when it matters.
func (c *ctl) pollFleet(ctx context.Context, clis []*client.Drive, eventN uint32, eventMin telemetry.Severity) fleetSnapshot {
	drives := make([]fleetDrive, len(clis))
	for i, cli := range clis {
		fd := fleetDrive{Addr: c.addrs[i]}
		sr, err := cli.ServerStats(ctx, drive.StatsArgs{EventN: eventN, EventMin: uint8(eventMin)})
		if err != nil {
			fd.Err = err.Error()
		} else {
			fd.DriveID = sr.DriveID
			fd.Metrics = sr.Metrics
			fd.Events = sr.Events
		}
		drives[i] = fd
	}
	return buildFleet(drives)
}

// fleet prints one aggregated snapshot of every -addr drive, as a
// table or (with -json) as the raw fleetSnapshot for scripts and CI.
func (c *ctl) fleet(rest []string) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the raw fleet snapshot as JSON")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	clis, closeAll, err := c.fleetClients()
	if err != nil {
		return err
	}
	defer closeAll()
	snap := c.pollFleet(c.ctx, clis, 64, telemetry.SevInfo)
	if *jsonOut {
		enc := json.NewEncoder(c.out)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	writeFleetTable(c.out, snap, nil)
	return nil
}

// top renders the fleet table as a live display, recomputing op and
// MB/s rates between consecutive polls. It ignores the command-level
// -timeout (a watch command has no natural deadline); each individual
// poll is still bounded.
func (c *ctl) top(rest []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	interval := fs.Duration("interval", time.Second, "refresh interval")
	samples := fs.Int("samples", 0, "stop after this many refreshes (0 = until interrupted)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	clis, closeAll, err := c.fleetClients()
	if err != nil {
		return err
	}
	defer closeAll()

	pollTimeout := max(5*time.Second, *interval)
	var prev *fleetSnapshot
	for n := 0; *samples <= 0 || n < *samples; n++ {
		ctx, cancel := context.WithTimeout(context.Background(), pollTimeout)
		snap := c.pollFleet(ctx, clis, 16, telemetry.SevWarn)
		cancel()

		// Render into a buffer and emit with one write after the ANSI
		// home+clear, so each refresh appears atomically.
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "\x1b[H\x1b[2Jnasd top — %d drive(s), every %s — %s\n\n",
			len(clis), interval, time.Now().Format("15:04:05"))
		writeFleetTable(&buf, snap, prev)
		var sets [][]telemetry.Event
		var sources []string
		for _, d := range snap.Drives {
			if len(d.Events) > 0 {
				sets = append(sets, d.Events)
				sources = append(sources, d.Addr)
			}
		}
		if merged := mergeEvents(sets, sources); len(merged) > 0 {
			fmt.Fprintf(&buf, "\nrecent events (warn and above):\n")
			writeEvents(&buf, merged)
		}
		if _, err := c.out.Write(buf.Bytes()); err != nil {
			return err
		}

		prev = &snap
		if *samples <= 0 || n+1 < *samples {
			time.Sleep(*interval)
		}
	}
	return nil
}

// events prints the merged event timeline of every -addr drive: up to
// n events per drive of at least severity minSev, each stamped with
// the drive it came from, interleaved by timestamp.
func (c *ctl) events(n uint32, minSev telemetry.Severity) error {
	clis, closeAll, err := c.fleetClients()
	if err != nil {
		return err
	}
	defer closeAll()
	sets := make([][]telemetry.Event, len(clis))
	for i, cli := range clis {
		sr, err := cli.ServerStats(c.ctx, drive.StatsArgs{EventN: n, EventMin: uint8(minSev)})
		if err != nil {
			return fmt.Errorf("events from %s: %v", c.addrs[i], err)
		}
		sets[i] = sr.Events
	}
	writeEvents(c.out, mergeEvents(sets, c.addrs))
	return nil
}

// mergeEvents interleaves several drives' event tails into one
// timeline ordered by timestamp (sequence numbers break ties only
// within one source). Each input's events get Source stamped from the
// parallel sources slice when provided.
func mergeEvents(sets [][]telemetry.Event, sources []string) []telemetry.Event {
	var out []telemetry.Event
	for i, set := range sets {
		for _, e := range set {
			if i < len(sources) && e.Source == "" {
				e.Source = sources[i]
			}
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].UnixNano != out[j].UnixNano {
			return out[i].UnixNano < out[j].UnixNano
		}
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// writeEvents renders an event tail, one line per event, oldest first.
func writeEvents(w io.Writer, events []telemetry.Event) {
	if len(events) == 0 {
		fmt.Fprintln(w, "(no events)")
		return
	}
	for _, e := range events {
		src := e.Source
		if src == "" {
			src = "-"
		}
		fmt.Fprintf(w, "%s %-5s %-20s %-10s %-14s %s\n",
			e.Time().Format("15:04:05.000"), e.Severity, src,
			e.Subsystem, e.Name, e.Detail)
	}
}
