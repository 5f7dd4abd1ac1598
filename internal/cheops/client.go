package cheops

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"sync"

	"nasd/internal/bufpool"
	"nasd/internal/capability"
	"nasd/internal/client"
	"nasd/internal/telemetry"
)

// Object is a client-side handle on an open Cheops logical object: the
// descriptor plus the component capability set. All data movement
// happens here, on the client, drive-direct. The handle is
// self-healing in two ways: expired capabilities are renewed from the
// manager transparently, and legs that fail (or are refused by a
// drive's breaker) fall over to the layout's redundancy mid-operation.
type Object struct {
	mgr    *Manager
	drives []*client.Drive // indexed like the manager's drive table
	desc   Descriptor
	rights capability.Rights
	capMu  sync.RWMutex
	caps   []capability.Capability
}

// OpenObject opens a logical object for I/O. drives must be the
// caller's own connections, indexed like the manager's drive table.
func OpenObject(mgr *Manager, drives []*client.Drive, logical uint64, rights capability.Rights) (*Object, error) {
	desc, caps, err := mgr.Open(logical, rights)
	if err != nil {
		return nil, err
	}
	return &Object{mgr: mgr, drives: drives, desc: desc, rights: rights, caps: caps}, nil
}

// cap returns a copy of component i's capability.
func (o *Object) cap(i int) capability.Capability {
	o.capMu.RLock()
	defer o.capMu.RUnlock()
	return o.caps[i]
}

// renewCaps trades the manager a fresh capability set for this object.
// If the layout changed since the handle opened (a repair moved a
// component), the new capabilities would name objects this handle does
// not address, so the caller gets ErrStaleLayout and must re-open.
func (o *Object) renewCaps() error {
	desc, caps, err := o.mgr.Open(o.desc.Logical, o.rights)
	if err != nil {
		return err
	}
	for i, c := range desc.Components {
		if o.desc.Components[i] != c {
			return ErrStaleLayout
		}
	}
	o.capMu.Lock()
	o.caps = caps
	o.capMu.Unlock()
	o.mgr.tel.capRenewals.Inc()
	return nil
}

// withCap runs fn under component i's capability, renewing the set
// once when the drive reports expiry (capabilities are minted with a
// bounded lifetime; a long-lived handle outlives them by design).
func (o *Object) withCap(i int, fn func(cp *capability.Capability) error) error {
	cp := o.cap(i)
	err := fn(&cp)
	if err != nil && errors.Is(err, client.ErrCapabilityExpired) {
		if rerr := o.renewCaps(); rerr != nil {
			return rerr
		}
		cp = o.cap(i)
		err = fn(&cp)
	}
	return err
}

// readDirect fills dst from one component byte range on its own drive,
// with no health check (RAID 5 reconstruction tries survivors even when
// their breakers are open). Where the component object ends short of
// the range, the rest of dst reads as zeros.
func (o *Object) readDirect(ctx context.Context, comp int, off uint64, dst []byte) error {
	c := o.desc.Components[comp]
	return o.withCap(comp, func(cp *capability.Capability) error {
		n, err := o.drives[c.Drive].ReadInto(ctx, cp, o.mgr.part, c.Object, off, dst)
		clear(dst[n:])
		return err
	})
}

// runLeg is the one way a request reaches a component in normal
// service. It honors the lane's health state: a lane awaiting repair
// (or a stale handle's repaired lane) is refused locally, and a drive
// with an open breaker is refused without traffic. Otherwise the leg is
// one call on the component's handle, and its outcome feeds the
// breaker. Reissuing, waiting on a shed reply's hint and bounding each
// attempt are the handle's RetryPolicy, not the leg's.
func (o *Object) runLeg(comp int, send func() error) error {
	c := o.desc.Components[comp]
	if o.mgr.laneUnserviceable(o.desc.Logical, comp, c.Object) {
		return errPendingRepair
	}
	if !o.mgr.allowDrive(c.Drive) {
		return errBreakerOpen
	}
	err := send()
	o.mgr.reportDrive(c.Drive, err)
	return err
}

// readLeg fills dst from one component byte range through runLeg.
func (o *Object) readLeg(ctx context.Context, comp int, off uint64, dst []byte) error {
	return o.runLeg(comp, func() error { return o.readDirect(ctx, comp, off, dst) })
}

// writeLeg writes one component byte range through runLeg.
func (o *Object) writeLeg(ctx context.Context, comp int, off uint64, data []byte) error {
	c := o.desc.Components[comp]
	return o.runLeg(comp, func() error {
		return o.withCap(comp, func(cp *capability.Capability) error {
			return o.drives[c.Drive].Write(ctx, cp, o.mgr.part, c.Object, off, data)
		})
	})
}

// Desc returns the layout descriptor.
func (o *Object) Desc() Descriptor { return o.desc }

// Size returns the logical size known to the manager at open time.
func (o *Object) Size() uint64 { return o.desc.Size }

// locate maps a logical byte offset to (component index, component
// offset, bytes until the lane changes, stripe number).
func (o *Object) locate(off int64) (comp int, compOff int64, runLen int64, stripe int64) {
	unit := o.desc.StripeUnit
	switch o.desc.Pattern {
	case Mirror1:
		return 0, off, 1 << 62, 0
	case Stripe0:
		u := off / unit
		within := off % unit
		w := int64(o.desc.Width())
		comp = int(u % w)
		compOff = (u/w)*unit + within
		return comp, compOff, unit - within, u / w
	case RAID5:
		dw := int64(o.desc.DataWidth())
		u := off / unit
		within := off % unit
		stripe = u / dw
		lane := u % dw
		parity := o.parityIndex(stripe)
		comp = int(lane)
		if comp >= parity {
			comp++
		}
		compOff = stripe*unit + within
		return comp, compOff, unit - within, stripe
	}
	panic("cheops: unknown pattern")
}

// parityIndex returns the component holding parity for a stripe
// (rotating right-asymmetric layout).
func (o *Object) parityIndex(stripe int64) int {
	return int(stripe % int64(o.desc.Width()))
}

// span is one contiguous run of a logical byte range on one component.
type span struct {
	comp    int
	compOff uint64
	bufOff  int // where the run starts in the caller's buffer
	n       int
	stripe  int64
}

// plan splits the logical range [off, off+n) into per-lane spans.
func (o *Object) plan(off uint64, n int) []span {
	var spans []span
	for done := 0; done < n; {
		comp, compOff, run, stripe := o.locate(int64(off) + int64(done))
		chunk := n - done
		if int64(chunk) > run {
			chunk = int(run)
		}
		spans = append(spans, span{comp, uint64(compOff), done, chunk, stripe})
		done += chunk
	}
	return spans
}

// The annotation keys of the Cheops spans.
var (
	keyDrive      = telemetry.NewKey("drive")
	keyOff        = telemetry.NewKey("off")
	keyLen        = telemetry.NewKey("len")
	keyError      = telemetry.NewKey("error")
	keyFanout     = telemetry.NewKey("fanout")
	keyBytes      = telemetry.NewKey("bytes")
	keyFailedComp = telemetry.NewKey("failed_comp")
	keyCause      = telemetry.NewKey("cause")
	keyStripe     = telemetry.NewKey("stripe")
)

// eachLeg runs leg for every span concurrently and returns the legs'
// errors, indexed like spans. Each leg gets its own child span: parallel
// legs render as overlapping bars, making the stripe's straggler
// visible.
func (o *Object) eachLeg(ctx context.Context, name string, spans []span, leg func(ctx context.Context, sp span) error) []error {
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for i, sp := range spans {
		wg.Add(1)
		go func(i int, sp span) {
			defer wg.Done()
			lctx, lsp := o.mgr.spans.StartSpan(ctx, name)
			lsp.Int(keyDrive, int64(o.desc.Components[sp.comp].Drive))
			lsp.Int(keyOff, int64(sp.compOff))
			lsp.Int(keyLen, int64(sp.n))
			defer lsp.End()
			if errs[i] = leg(lctx, sp); errs[i] != nil {
				lsp.Note(keyError, errs[i].Error())
			}
		}(i, sp)
	}
	wg.Wait()
	return errs
}

// firstError returns the first non-nil error of a fan-out.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadAt reads n bytes at logical offset off into a buffer of its own;
// see ReadInto.
func (o *Object) ReadAt(ctx context.Context, off uint64, n int) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]byte, n)
	if err := o.ReadInto(ctx, off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto fills dst from logical offset off, fanning the per-lane spans
// out to all component drives concurrently (each span is itself
// pipelined when large); every leg lands in its own slice of dst. For
// redundant layouts it reconstructs around a single failed component
// (degraded read). Where the object ends short of the range, the rest
// of dst reads as zeros.
func (o *Object) ReadInto(ctx context.Context, off uint64, dst []byte) error {
	if len(dst) == 0 {
		return nil
	}
	spans := o.plan(off, len(dst))
	o.mgr.tel.readFanout.Observe(int64(len(spans)))
	ctx, rsp := o.mgr.spans.StartSpan(ctx, "cheops.read")
	rsp.Int(keyFanout, int64(len(spans)))
	rsp.Int(keyBytes, int64(len(dst)))
	defer rsp.End()
	errs := o.eachLeg(ctx, "cheops.read.leg", spans, func(lctx context.Context, sp span) error {
		return o.readComponent(lctx, sp.comp, sp.compOff, dst[sp.bufOff:sp.bufOff+sp.n], sp.stripe)
	})
	return firstError(errs)
}

// readComponent fills dst from one component, falling back to
// reconstruction when the component fails and the layout is redundant.
// The fall-over happens mid-operation: a lane that times out, errors,
// is refused by its drive's breaker, or holds stale data (awaiting
// repair) is served from the surviving redundancy without failing the
// caller's read.
func (o *Object) readComponent(ctx context.Context, comp int, off uint64, dst []byte, stripe int64) error {
	err := o.readLeg(ctx, comp, off, dst)
	if err == nil {
		return nil
	}
	if out, _ := client.Classify(err); out == client.Shed {
		// Backpressure the handle's policy did not absorb is saturation,
		// not component failure: the data on the lane is intact and the
		// drive is alive. Reconstructing around it would fan a single
		// overloaded drive's load out to its healthy stripe-mates —
		// overload begets more traffic — so surface the retryable
		// error instead of going degraded.
		return err
	}
	if ctx.Err() != nil {
		return err // don't mask a canceled read as a drive failure
	}
	if o.desc.Pattern == Mirror1 || o.desc.Pattern == RAID5 {
		o.mgr.tel.degradedReads.Inc()
		o.mgr.tel.failovers.Inc()
		if o.mgr.noteDegradedRead(o.desc.Logical, comp) {
			o.mgr.tel.events.Emitf(telemetry.SevWarn, "cheops", "degraded_read",
				"logical=%d comp=%d now served by reconstruction: %v", o.desc.Logical, comp, err)
		}
		var dsp telemetry.Span
		ctx, dsp = o.mgr.spans.StartSpan(ctx, "cheops.degraded_read")
		dsp.Int(keyFailedComp, int64(comp))
		dsp.Note(keyCause, err.Error())
		defer dsp.End()
	}
	switch o.desc.Pattern {
	case Mirror1:
		for alt := range o.desc.Components {
			if alt == comp {
				continue
			}
			if o.readLeg(ctx, alt, off, dst) == nil {
				return nil
			}
		}
		return fmt.Errorf("%w: all mirrors failed: %v", ErrDegraded, err)
	case RAID5:
		// Reconstruct: xor of every other component at the same offsets,
		// reading all survivors in parallel. Survivors bypass the
		// breaker — reconstruction is the last resort, so the drives
		// are tried even when suspect — but a stale lane is a hard
		// stop: xor cannot disentangle two inconsistent lanes.
		rerr := xorSurvivors(len(o.desc.Components), comp, dst, func(i int, buf []byte) error {
			ci := o.desc.Components[i]
			if o.mgr.laneUnserviceable(o.desc.Logical, i, ci.Object) {
				return fmt.Errorf("%w: survivor %d also awaits repair", ErrDegraded, i)
			}
			e := o.readDirect(ctx, i, off, buf)
			o.mgr.reportDrive(ci.Drive, e)
			return e
		})
		if rerr != nil {
			return fmt.Errorf("%w: second failure during reconstruction: %v (first: %v)", ErrDegraded, rerr, err)
		}
		return nil
	default:
		return err
	}
}

// WriteAt writes data at logical offset off and reports the new size to
// the manager. Per-lane spans go to all component drives concurrently.
func (o *Object) WriteAt(ctx context.Context, off uint64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	ctx, wsp := o.mgr.spans.StartSpan(ctx, "cheops.write")
	wsp.Int(keyBytes, int64(len(data)))
	defer wsp.End()
	var err error
	switch o.desc.Pattern {
	case Mirror1:
		err = o.writeMirror(ctx, off, data)
	case Stripe0:
		err = o.writeStripe0(ctx, off, data)
	case RAID5:
		err = o.writeRAID5(ctx, off, data)
	default:
		err = ErrBadLayout
	}
	if err != nil {
		return err
	}
	end := off + uint64(len(data))
	if end > o.desc.Size {
		o.desc.Size = end
		return o.mgr.UpdateSize(ctx, o.desc.Logical, end)
	}
	return nil
}

// writeSpans sends each span's slice of data to its component, all
// legs concurrently, and returns the legs' errors indexed like spans.
func (o *Object) writeSpans(ctx context.Context, spans []span, data []byte) []error {
	o.mgr.tel.writeFanout.Observe(int64(len(spans)))
	return o.eachLeg(ctx, "cheops.write.leg", spans, func(lctx context.Context, sp span) error {
		return o.writeLeg(lctx, sp.comp, sp.compOff, data[sp.bufOff:sp.bufOff+sp.n])
	})
}

// settle turns the leg errors of one redundant write into its result;
// errs[i] is the leg that wrote component legs[i].comp. A leg that fails
// (or is refused by its breaker) while another lands degrades the write
// rather than failing it: the data is durable on the surviving lanes
// and the skipped one enters the repair ledger so ReplaceComponent can
// rebuild it later. That holds whatever the cause, residual overload
// and the caller's own cancellation included: a lane skipped while its
// siblings committed is stale, and out of the ledger it would serve old
// bytes later (for RAID 5, xor new data with old parity). When every
// leg was shed nothing was written and the lanes are still mutually
// consistent, so the typed retryable error surfaces with no ledger
// entry; any other total failure loses the update.
func (o *Object) settle(ctx context.Context, legs []span, errs []error) error {
	failed, shed := 0, 0
	for _, e := range errs {
		if e == nil {
			continue
		}
		failed++
		if out, _ := client.Classify(e); out == client.Shed {
			shed++
		}
	}
	switch {
	case failed < len(errs):
		for i, e := range errs {
			if e != nil {
				o.mgr.noteDegradedWrite(o.desc.Logical, legs[i].comp, e)
			}
		}
		return ctx.Err()
	case ctx.Err() != nil:
		return ctx.Err() // the caller's cancellation, not drive failures
	case shed == failed:
		return firstError(errs)
	}
	return fmt.Errorf("%w: every leg of the write failed: %v", ErrDegraded, firstError(errs))
}

// writeMirror writes all replicas in parallel.
func (o *Object) writeMirror(ctx context.Context, off uint64, data []byte) error {
	legs := make([]span, len(o.desc.Components))
	for i := range legs {
		legs[i] = span{comp: i, compOff: off, n: len(data)}
	}
	return o.settle(ctx, legs, o.writeSpans(ctx, legs, data))
}

// writeStripe0 has no redundancy to degrade into: a failed leg fails
// the write, but still feeds the drive's breaker.
func (o *Object) writeStripe0(ctx context.Context, off uint64, data []byte) error {
	return firstError(o.writeSpans(ctx, o.plan(off, len(data)), data))
}

// writeRAID5 performs parity-consistent writes one stripe unit at a
// time using read-modify-write (small-write) updates, serialized per
// stripe through the manager's lock service.
func (o *Object) writeRAID5(ctx context.Context, off uint64, data []byte) error {
	for _, sp := range o.plan(off, len(data)) {
		if err := o.rmwRAID5(ctx, sp, data[sp.bufOff:sp.bufOff+sp.n]); err != nil {
			return err
		}
	}
	return nil
}

func (o *Object) rmwRAID5(ctx context.Context, sp span, chunk []byte) error {
	o.mgr.tel.rmwWrites.Inc()
	ctx, rsp := o.mgr.spans.StartSpan(ctx, "cheops.rmw")
	rsp.Int(keyStripe, sp.stripe)
	defer rsp.End()
	o.mgr.LockStripe(o.desc.Logical, sp.stripe)
	defer o.mgr.UnlockStripe(o.desc.Logical, sp.stripe)

	// Leg 0 is the data component, leg 1 the stripe's parity.
	legs := []span{sp, sp}
	legs[1].comp = o.parityIndex(sp.stripe)

	// Read old data and old parity in parallel (missing regions read as
	// zeros) — the two drives seek concurrently, halving the small-write
	// pre-read latency. The pre-reads go through readComponent, so a
	// failed or stale lane is served by reconstruction: xor of the
	// other lanes recovers a data lane and parity alike, which is what
	// keeps RMW possible with one bad component.
	// Both land in pooled buffers: a leg has stopped touching its buffer
	// by the time it returns, timed out or not, so they go back at return.
	old := [2][]byte{bufpool.Get(sp.n), bufpool.Get(sp.n)}
	defer bufpool.Put(old[0])
	defer bufpool.Put(old[1])
	if err := eachDrive(2, func(i int) error {
		return o.readComponent(ctx, legs[i].comp, sp.compOff, old[i], sp.stripe)
	}); err != nil {
		return err
	}

	// The new parity, old parity ^ old data ^ chunk, in place of the old.
	newPar := old[1]
	subtle.XORBytes(newPar, newPar, old[0])
	subtle.XORBytes(newPar, newPar, chunk)
	// Data and parity land in parallel too; the stripe lock keeps the
	// pair atomic with respect to other writers of this stripe. One
	// failed leg degrades the write instead of failing it: with
	// newPar = oldPar ^ oldData ^ chunk, reconstruction of a skipped
	// data lane from the surviving lanes yields exactly chunk, so the
	// stripe stays logically consistent while the skipped component
	// waits in the repair ledger.
	bufs := [2][]byte{chunk, newPar}
	werrs := make([]error, 2)
	_ = eachDrive(2, func(i int) error {
		werrs[i] = o.writeLeg(ctx, legs[i].comp, sp.compOff, bufs[i])
		return nil
	})
	return o.settle(ctx, legs, werrs)
}
