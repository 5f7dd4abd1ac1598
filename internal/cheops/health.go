package cheops

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"nasd/internal/client"
	"nasd/internal/telemetry"
)

// This file is the manager's drive-health plane: a consecutive-failure
// circuit breaker per drive, the pending-repair ledger degraded writes
// feed, and RepairAll, which turns that ledger back into fully
// redundant layouts once drives return. The paper's cost model assumes
// drives "fail independently" and that Cheops reconstructs around
// them; the breaker supplies the detection half of that contract, the
// ledger the recovery half.

// BreakerState names a drive breaker's position.
type BreakerState int32

// Breaker positions, in escalation order.
const (
	// BreakerClosed: healthy, all traffic admitted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the drive failed FailThreshold consecutive legs;
	// traffic is refused (failing fast to the degraded path) until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: cooldown elapsed and one probe is in flight;
	// its outcome closes or reopens the breaker.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("breaker(%d)", int32(s))
}

// Sentinel causes for legs refused without touching the drive.
var (
	errBreakerOpen   = errors.New("cheops: drive unavailable (breaker open)")
	errPendingRepair = errors.New("cheops: component awaiting repair")
)

// breaker is one drive's consecutive-failure circuit breaker.
type breaker struct {
	mu        sync.Mutex
	drive     int // manager drive index, labels this breaker's events
	clock     func() time.Time
	threshold int
	cooldown  time.Duration
	state     BreakerState
	fails     int
	openedAt  time.Time
	tel       *cheopsTel
}

func newBreaker(drive, threshold int, cooldown time.Duration, clock func() time.Time, tel *cheopsTel) *breaker {
	return &breaker{drive: drive, clock: clock, threshold: threshold, cooldown: cooldown, tel: tel}
}

// Allow reports whether a leg may be sent to the drive. In the open
// state it admits exactly one probe per cooldown window (transitioning
// to half-open); the probe's outcome decides the next state.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if b.clock().Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			b.tel.breakerProbes.Inc()
			b.tel.events.Emitf(telemetry.SevInfo, "cheops", "breaker_probe",
				"drive %d: cooldown elapsed, admitting half-open probe", b.drive)
			return true
		}
		return false
	case BreakerHalfOpen:
		return false // a probe is already in flight
	}
	return true
}

// Success records a completed leg; any success fully closes the breaker.
func (b *breaker) Success() {
	b.mu.Lock()
	reopened := b.state != BreakerClosed
	b.fails = 0
	b.state = BreakerClosed
	b.mu.Unlock()
	if reopened {
		b.tel.events.Emitf(telemetry.SevInfo, "cheops", "breaker_close",
			"drive %d: probe succeeded, traffic restored", b.drive)
	}
}

// Failure records a failed leg, tripping the breaker after threshold
// consecutive failures (or immediately when a half-open probe fails).
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.fails >= b.threshold) {
		b.state = BreakerOpen
		b.openedAt = b.clock()
		b.tel.breakerOpens.Inc()
		b.tel.events.Emitf(telemetry.SevError, "cheops", "breaker_open",
			"drive %d: opened after %d consecutive leg failures", b.drive, b.fails)
	}
}

// State returns the current position.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// PendingRepair records a component a degraded write skipped: its
// contents are stale until ReplaceComponent rebuilds it, and reads of
// the lane are forced through reconstruction meanwhile.
type PendingRepair struct {
	Logical   uint64
	Component int
	Drive     int // drive index the component lives on
	Cause     string
}

type repairKey struct {
	logical uint64
	comp    int
}

// DriveHealth returns drive i's breaker state.
func (m *Manager) DriveHealth(i int) BreakerState {
	if i < 0 || i >= len(m.health) {
		return BreakerClosed
	}
	return m.health[i].State()
}

// allowDrive asks drive i's breaker for admission.
func (m *Manager) allowDrive(i int) bool {
	if i < 0 || i >= len(m.health) {
		return true
	}
	return m.health[i].Allow()
}

// reportDrive feeds one leg's result into drive i's breaker, by its
// client.Outcome. A reply from the drive — even a rejection — proves it
// alive; only transport failures and timeouts count against it.
// Cancellation by the caller says nothing about the drive and records
// nothing.
func (m *Manager) reportDrive(i int, err error) {
	if i < 0 || i >= len(m.health) {
		return
	}
	switch out, _ := client.Classify(err); out {
	case client.Shed:
		// A shed reply is the drive's overload plane working as
		// designed, and counting it toward failure would open breakers
		// under exactly the load spikes shedding exists to ride out —
		// turning a busy drive into a "failed" one and dogpiling its
		// stripe-mates.
		m.tel.backpressure.Inc()
		m.health[i].Success()
	case client.Answered:
		m.health[i].Success()
	case client.Canceled:
	default:
		m.health[i].Failure()
	}
}

// noteRepair logs that component comp of logical is stale, reporting
// whether this call created the ledger entry. The drive index is
// resolved against the manager's current descriptor so stale handles
// log the lane that actually needs rebuilding.
func (m *Manager) noteRepair(logical uint64, comp int, cause error) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.objects[logical]
	if !ok || comp < 0 || comp >= len(d.Components) {
		return false
	}
	k := repairKey{logical, comp}
	if _, dup := m.repairs[k]; dup {
		return false
	}
	m.repairs[k] = PendingRepair{
		Logical: logical, Component: comp,
		Drive: d.Components[comp].Drive, Cause: cause.Error(),
	}
	return true
}

// clearRepair drops the ledger entry after a successful rebuild (and
// re-arms the lane's degraded-read event).
func (m *Manager) clearRepair(logical uint64, comp int) {
	m.mu.Lock()
	delete(m.repairs, repairKey{logical, comp})
	delete(m.degradedRead, repairKey{logical, comp})
	m.mu.Unlock()
}

// noteDegradedRead reports whether this is the lane's first
// reconstruction-served read since it was last healthy.
func (m *Manager) noteDegradedRead(logical uint64, comp int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := repairKey{logical, comp}
	if m.degradedRead[k] {
		return false
	}
	m.degradedRead[k] = true
	return true
}

// componentSuspect reports whether comp of logical awaits repair.
func (m *Manager) componentSuspect(logical uint64, comp int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, bad := m.repairs[repairKey{logical, comp}]
	return bad
}

// laneUnserviceable reports whether a handle's lane must be served by
// reconstruction: either a degraded write skipped it (pending repair),
// or the manager has already repaired it onto a different object than
// the one the handle opened (the handle is stale; its component holds
// pre-repair contents).
func (m *Manager) laneUnserviceable(logical uint64, comp int, obj uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, bad := m.repairs[repairKey{logical, comp}]; bad {
		return true
	}
	if d, ok := m.objects[logical]; ok && comp < len(d.Components) && d.Components[comp].Object != obj {
		return true
	}
	return false
}

// PendingRepairs returns the repair ledger, ordered for determinism.
func (m *Manager) PendingRepairs() []PendingRepair {
	m.mu.Lock()
	out := make([]PendingRepair, 0, len(m.repairs))
	for _, r := range m.repairs {
		out = append(out, r)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Logical != out[j].Logical {
			return out[i].Logical < out[j].Logical
		}
		return out[i].Component < out[j].Component
	})
	return out
}

// MarkDriveStale enters every component resident on drive i into the
// repair ledger. Callers use it when a drive returns from a crash or
// power cut: the hardware answers again and mount-time journal recovery
// restored its metadata, but data writes it acknowledged from volatile
// cache may be gone, so every lane it carries must be treated as stale
// — served by reconstruction — until RepairAll rebuilds it. Lanes
// already in the ledger (from degraded writes during the outage) are
// left as they are. Returns the number of lanes newly marked.
func (m *Manager) MarkDriveStale(drive int, cause string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	marked := 0
	for logical, d := range m.objects {
		for comp := range d.Components {
			if d.Components[comp].Drive != drive {
				continue
			}
			k := repairKey{logical, comp}
			if _, dup := m.repairs[k]; dup {
				continue
			}
			m.repairs[k] = PendingRepair{
				Logical: logical, Component: comp, Drive: drive, Cause: cause,
			}
			marked++
		}
	}
	if marked > 0 {
		m.tel.events.Emitf(telemetry.SevWarn, "cheops", "drive_stale",
			"drive %d: %d lanes marked stale (%s)", drive, marked, cause)
	}
	return marked
}

// noteDegradedWrite is the accounting for one skipped write leg: the
// degraded-write and failover counters advance and the lane enters the
// repair ledger.
func (m *Manager) noteDegradedWrite(logical uint64, comp int, cause error) {
	m.tel.degradedWrites.Inc()
	m.tel.failovers.Inc()
	// One event per lane transition, not per write: the counter carries
	// the op rate; the event marks the moment the lane went stale.
	if m.noteRepair(logical, comp, cause) {
		m.tel.events.Emitf(telemetry.SevWarn, "cheops", "degraded_write",
			"logical=%d comp=%d now written degraded: %v", logical, comp, cause)
	}
}

// RepairAll attempts ReplaceComponent for every ledger entry, placing
// each rebuild on the drive the component already lives on — the
// revived-drive case, where the hardware is back but its contents are
// stale. Rebuild traffic doubles as the breaker's probe: a drive still
// down reopens its breaker and the entry stays in the ledger for the
// next sweep; drives whose breakers refuse admission are skipped
// without traffic. It returns how many components were rebuilt and the
// last error.
//
// Handles opened before a repair keep working — their stale lane is
// detected and served by reconstruction — but pay a redundancy read
// per access until reopened.
func (m *Manager) RepairAll(ctx context.Context) (int, error) {
	repaired := 0
	var lastErr error
	for _, r := range m.PendingRepairs() {
		if !m.allowDrive(r.Drive) {
			continue
		}
		if err := m.ReplaceComponent(ctx, r.Logical, r.Component, r.Drive); err != nil {
			m.reportDrive(r.Drive, err)
			lastErr = err
			continue
		}
		m.reportDrive(r.Drive, nil)
		repaired++
	}
	return repaired, lastErr
}
