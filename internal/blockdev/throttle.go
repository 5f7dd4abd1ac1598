package blockdev

import (
	"time"

	"nasd/internal/simtime"
)

// Throttle wraps a Device with a service-time model: a per-operation
// command overhead plus bytes/bytesPerSec of media transfer time,
// serialized like a single spindle (concurrent callers queue). It lets
// in-memory rigs reproduce the latency structure of real drives — the
// paper's prototype moved data off a Seagate Medallist at single-digit
// MB/s — so that overlap optimisations (striping, pipelining) show
// their effect without hardware.
type Throttle struct {
	dev   Device
	pacer *simtime.Pacer
}

// NewThrottle models dev as a medium moving bytesPerSec with perOp
// command overhead per block operation. bytesPerSec <= 0 means
// unlimited bandwidth (only perOp applies).
func NewThrottle(dev Device, bytesPerSec int64, perOp time.Duration) *Throttle {
	return &Throttle{dev: dev, pacer: simtime.NewPacer(bytesPerSec, perOp)}
}

// BlockSize implements Device.
func (t *Throttle) BlockSize() int { return t.dev.BlockSize() }

// Blocks implements Device.
func (t *Throttle) Blocks() int64 { return t.dev.Blocks() }

// ReadBlock implements Device.
func (t *Throttle) ReadBlock(i int64, buf []byte) error { return readOne(t, i, buf) }

// WriteBlock implements Device.
func (t *Throttle) WriteBlock(i int64, data []byte) error { return writeOne(t, i, data) }

// ReadBlocks implements Device, charging the extent as one command:
// perOp once, then its bytes.
func (t *Throttle) ReadBlocks(start int64, buf []byte) error {
	t.pacer.Charge(len(buf))
	return t.dev.ReadBlocks(start, buf)
}

// WriteBlocks implements Device, charging the extent as one command.
func (t *Throttle) WriteBlocks(start int64, data []byte) error {
	t.pacer.Charge(len(data))
	return t.dev.WriteBlocks(start, data)
}

// Flush implements Device.
func (t *Throttle) Flush() error { return t.dev.Flush() }
