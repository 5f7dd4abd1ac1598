package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nasd/internal/drive"
	"nasd/internal/rpc"
)

// ErrNoDialer is returned when a retry needs a fresh connection but the
// handle was built without WithDialer.
var ErrNoDialer = errors.New("client: connection lost and no dialer configured")

// RetryPolicy bounds how a Drive handle reissues failed requests. The
// policy is deadline-scoped: backoff never sleeps past the caller's
// context deadline, and a canceled context stops retrying immediately.
type RetryPolicy struct {
	// MaxAttempts is the total tries per request, including the first
	// (1 = never retry).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt (with jitter in [d/2, d)) up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry delay.
	MaxBackoff time.Duration
	// Budget is the per-connection retry token pool. Each retry spends
	// one token; each success refunds a tenth. A drive that fails
	// persistently exhausts the budget and errors surface fast instead
	// of amplifying load (the retry-budget idea from production RPC
	// systems, scaled to one client-drive pair).
	Budget int
	// AttemptTimeout, when > 0, bounds each individual attempt so a
	// lost request on a blackholed link is detected and reissued while
	// the caller's overall deadline still has room. 0 disables
	// per-attempt deadlines.
	AttemptTimeout time.Duration
}

// DefaultRetryPolicy returns the values WithRetry substitutes for zero
// fields (AttemptTimeout excepted: it defaults off).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
		Budget:      64,
	}
}

// WithRetry arms the handle with a retry policy. Zero-valued fields
// take DefaultRetryPolicy values. do() then reissues a failed request
// by its Outcome, at most MaxAttempts sends in total, pipelined
// fragments included:
//
//	Answered   only StatusError, same connection; spends a budget token
//	Shed       any op, after the drive's hint; free of the budget
//	NeverSent  any op, over a fresh connection (needs WithDialer); token
//	Lost       idempotent ops, over a fresh connection (WithDialer); token
//	TimedOut   idempotent ops, same connection; token
//	Canceled   never
//
// Without this option a Drive sends every request exactly once.
func WithRetry(p RetryPolicy) Option {
	return func(d *Drive) {
		def := DefaultRetryPolicy()
		if p.MaxAttempts <= 0 {
			p.MaxAttempts = def.MaxAttempts
		}
		if p.BaseBackoff <= 0 {
			p.BaseBackoff = def.BaseBackoff
		}
		if p.MaxBackoff <= 0 {
			p.MaxBackoff = def.MaxBackoff
		}
		if p.Budget <= 0 {
			p.Budget = def.Budget
		}
		d.retry = p
	}
}

// WithDialer supplies the reconnect path: when a retryable request
// fails on a dead connection, the handle dials a replacement and
// reissues over it (with a fresh nonce — drives reject replayed
// counters). Concurrent fragments that observe the same dead
// connection share one reconnect.
func WithDialer(dial func() (rpc.Conn, error)) Option {
	return func(d *Drive) { d.dial = dial }
}

// retryBudget is a token bucket in tenths: a retry costs 10 tenths, a
// success refunds 1, so sustained retries are capped near 10% of
// successful traffic once the initial pool drains.
type retryBudget struct {
	mu     sync.Mutex
	tenths int
	max    int
}

func newRetryBudget(tokens int) *retryBudget {
	if tokens < 1 {
		tokens = 1
	}
	return &retryBudget{tenths: tokens * 10, max: tokens * 10}
}

func (b *retryBudget) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tenths >= 10 {
		b.tenths -= 10
		return true
	}
	return false
}

func (b *retryBudget) refund() {
	b.mu.Lock()
	if b.tenths < b.max {
		b.tenths++
	}
	b.mu.Unlock()
}

// Outcome is what a request's error proves about the drive and about
// whether the request ran. Classify is the one place the client plane
// (this package and cheops) reads an error for that purpose: the retry
// loop, the Cheops breakers, degraded reads and write settlement all
// act on the Outcome. DESIGN.md §6 has the full table.
type Outcome int

const (
	// Answered: the drive replied (no error, or a RemoteError other
	// than retry-later). It is alive and the request ran exactly once.
	Answered Outcome = iota
	// Shed: the drive replied StatusRetryLater before executing. It is
	// alive and the request never ran.
	Shed
	// NeverSent: the transport failed before the request left the
	// client, so the drive never saw it.
	NeverSent
	// Lost: the transport failed with the request or its reply in
	// flight. Whether the request ran is unknown.
	Lost
	// TimedOut: a deadline passed with the request outstanding. Fate
	// unknown like Lost, but the connection is not known to be dead.
	TimedOut
	// Canceled: the caller gave up. It says nothing about the drive.
	Canceled
)

// Classify maps err, wrapped or not, to its Outcome. The duration is
// the drive's retry-after hint, nonzero only for Shed.
func Classify(err error) (Outcome, time.Duration) {
	if err == nil {
		return Answered, 0 // before re, which errors.As moves to the heap
	}
	var re *RemoteError
	switch {
	case errors.As(err, &re):
		if re.Status == rpc.StatusRetryLater {
			return Shed, re.RetryAfter
		}
		return Answered, 0
	case errors.Is(err, context.DeadlineExceeded):
		return TimedOut, 0
	case errors.Is(err, context.Canceled):
		return Canceled, 0
	case errors.Is(err, rpc.ErrNotSent):
		return NeverSent, 0
	}
	return Lost, 0
}

// idempotent reports whether op may be safely re-executed when the
// first attempt's fate is unknown (Lost or TimedOut). NASD reads and
// writes address absolute byte ranges under a capability, so repeating
// one is a no-op; allocation ops (create, version, bump) and removes
// change outcome on re-execution and must not be blind-retried.
func idempotent(op drive.Op) bool {
	switch op {
	case drive.OpReadObject, drive.OpWriteObject, drive.OpGetAttr, drive.OpSetAttr,
		drive.OpListObjects, drive.OpGetPartition, drive.OpFlush, drive.OpGetStats,
		drive.OpExecute, drive.OpSetKey:
		return true
	}
	return false
}

// reissuable reports whether op may be sent again after an attempt
// that ended in out (the classification of err): the WithRetry table.
// ctx is the caller's context, not the per-attempt one: nothing is
// retried past it. After NeverSent or Lost the connection is dead, so
// the reissue goes over a fresh one.
func (d *Drive) reissuable(ctx context.Context, op drive.Op, out Outcome, err error) bool {
	if d.retry.MaxAttempts <= 1 || ctx.Err() != nil {
		return false
	}
	switch out {
	case Answered:
		// Only generic drive errors (momentary media or resource
		// conditions) are worth retrying; auth, replay, expiry,
		// not-found and quota rejections are deterministic.
		var re *RemoteError
		return errors.As(err, &re) && re.Status == rpc.StatusError
	case Shed:
		return true
	case TimedOut:
		return idempotent(op)
	case NeverSent:
		return d.dial != nil
	case Lost:
		return d.dial != nil && idempotent(op)
	}
	return false
}

// Pause sleeps before retry number attempt (0 = the first), scoped to
// ctx: it returns ctx's error instead of sleeping past the caller's
// deadline. It is the one timer of the client plane, and do() the only
// caller that waits on it. With hint > 0 (a drive retry-after
// hint) the sleep is the hint plus up to 25% jitter — the drive knows
// when it will have room, and synchronized client herds re-arriving
// exactly at the hint would recreate the overload it shed to escape.
// With no hint the delay is the jittered exponential schedule.
func (p RetryPolicy) Pause(ctx context.Context, attempt int, hint time.Duration) error {
	var delay time.Duration
	if hint > 0 {
		delay = hint + time.Duration(rand.Int63n(int64(hint/4)+1))
	} else {
		delay = p.BaseBackoff << uint(attempt)
		if delay <= 0 || delay > p.MaxBackoff {
			delay = p.MaxBackoff
		}
		// Full jitter over the upper half: [delay/2, delay).
		delay = delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
	}
	if dl, ok := ctx.Deadline(); ok {
		if remain := time.Until(dl); remain < delay {
			delay = remain // the deadline fires first; let it
		}
	}
	if delay <= 0 {
		return context.DeadlineExceeded
	}
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
	return ctx.Err()
}

// client returns the current RPC client and its generation. The
// generation lets a failed attempt name the connection it saw die, so
// reconnect() is idempotent across concurrent fragments.
func (d *Drive) client() (*rpc.Client, uint64) {
	d.connMu.Lock()
	defer d.connMu.Unlock()
	return d.cli, d.gen
}

// reconnect replaces the connection if gen still names the one the
// caller observed failing; when another fragment already reconnected,
// it returns immediately so a window's worth of failures costs one
// dial, not window dials.
func (d *Drive) reconnect(gen uint64) error {
	d.connMu.Lock()
	defer d.connMu.Unlock()
	if d.gen != gen {
		return nil
	}
	if d.dial == nil {
		return ErrNoDialer
	}
	conn, err := d.dial()
	if err != nil {
		return fmt.Errorf("client: reconnect: %w", err)
	}
	d.cli.Close()
	d.cli = rpc.NewClient(conn, rpc.WithClientMetrics(d.reg))
	d.gen++
	d.reconnects.Inc()
	return nil
}
