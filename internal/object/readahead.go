package object

import (
	"sync"

	"nasd/internal/blockdev"
	"nasd/internal/cache"
	"nasd/internal/layout"
)

// SeqTracker is one object's sequential-read detector, readahead window
// and readahead queue. It lives in the object's lock-manager entry and
// the Store passes it down to the backend on reads; readers hold only
// the read side of the object lock, so it carries its own mutex.
//
// A read at offset 0, or the second of two sequential reads, starts a
// stream with a window of ReadaheadBlocks. The read of the last window's
// middle block (its mark) issues the next window, twice the size, up to
// blockdev.RunLimit: one device run. Other reads inside the stream
// change nothing, so pipelined fragments may arrive in any order and
// re-reads do not grow the window; a read beyond it ends the stream.
//
// The read that issues a window maps it to device runs and queues them
// here. One goroutine per object, started when runs arrive and gone when
// none is left, fills them in order off the reply path: an object has
// one readahead device read in flight at most, distinct objects fill in
// parallel, and a remove or truncate waits for its own object's (drain).
type SeqTracker struct {
	mu      sync.Mutex
	nextOff uint64 // offset one past the previous read
	raEnd   int64  // file block one past the last window sent (0: no stream)
	mark    int64  // the file block whose read starts the next window
	window  int    // size in blocks of the next window

	queue   []prefetchRun
	queued  int           // blocks in queue and in flight
	filling bool          // the goroutine is running
	drained chan struct{} // closed as the goroutine exits, if drain waits
	p       *prefetcher   // whose cache fills the queue
	run     func()        // t.fill, bound once: starting the goroutine allocates nothing
}

// Advance records a read of [off, off+n) and returns the file blocks
// [from, from+count) readahead should fetch, count 0 for none. bs is
// the block size and first the first window's size in blocks; 0, or a
// nil tracker, never fires.
func (t *SeqTracker) Advance(off, n, bs uint64, first int) (from int64, count int) {
	if t == nil || first == 0 {
		return 0, 0
	}
	fb, end := int64(off/bs), int64((off+n+bs-1)/bs)
	t.mu.Lock()
	defer t.mu.Unlock()
	prev := t.nextOff
	t.nextOff = off + n
	switch {
	case off != 0 && fb < t.raEnd:
		// Inside the stream: only the read of the mark moves it.
		if t.mark < fb || t.mark >= end {
			return 0, 0
		}
	case off == 0 || off == prev:
		t.raEnd, t.window = 0, first
	default:
		t.raEnd = 0
		return 0, 0
	}
	from, count = max(t.raEnd, end), t.window
	t.raEnd, t.mark = from+int64(count), from+int64(count/2)
	if t.window < blockdev.RunLimit {
		t.window = min(2*t.window, blockdev.RunLimit)
	}
	return from, count
}

// idle reports whether the tracker remembers no read. The lock manager
// keeps only entries whose tracker is not idle; a tracker with a fill
// queued has seen the read that queued it, so is never idle.
func (t *SeqTracker) idle() bool { return t.nextOff == 0 && t.raEnd == 0 }

// reset waits for the object's fills, then forgets the stream and its
// window.
func (t *SeqTracker) reset() {
	t.drain()
	t.nextOff, t.raEnd, t.mark, t.window = 0, 0, 0, 0
}

// queueBound is the most readahead, in blocks, an object may have queued
// or in flight: the window being filled and the next. A run past it is
// dropped (readahead is only advice). A reader issues a window when it
// reads the previous one's mark, which that window's fill has usually
// installed by then; BenchmarkConcurrentStreams, eight streams on one
// store, drops none.
const queueBound = 2 * blockdev.RunLimit

// push queues run r to be filled through p, unless it would take the
// object past queueBound.
func (t *SeqTracker) push(p *prefetcher, r prefetchRun) {
	t.mu.Lock()
	if r.n == 0 || t.queued+r.n > queueBound {
		t.mu.Unlock()
		return
	}
	t.queue = append(t.queue, r)
	t.queued += r.n
	t.p = p
	start := !t.filling
	t.filling = true
	if t.run == nil {
		t.run = t.fill
	}
	t.mu.Unlock()
	if start {
		go t.run()
	}
}

// fill is the object's readahead goroutine: it fills the queued runs in
// order and exits when none is left.
func (t *SeqTracker) fill() {
	t.mu.Lock()
	for len(t.queue) > 0 {
		r, p := t.queue[0], t.p
		t.queue = t.queue[:copy(t.queue, t.queue[1:])]
		t.mu.Unlock()
		p.fill(r)
		t.mu.Lock()
		t.queued -= r.n
	}
	t.filling = false
	if t.drained != nil {
		close(t.drained)
		t.drained = nil
	}
	t.mu.Unlock()
}

// drain returns once every run queued for the object has been filled.
// The caller holds the object's exclusive lock, so no read queues more
// while it waits: after drain, what the cache holds of the object's
// blocks stays until the caller changes it. Remove and truncate drain
// before they invalidate the blocks they free.
func (t *SeqTracker) drain() {
	t.mu.Lock()
	if !t.filling {
		t.mu.Unlock()
		return
	}
	if t.drained == nil {
		t.drained = make(chan struct{})
	}
	done := t.drained
	t.mu.Unlock()
	<-done
}

// prefetchRun is a run of consecutive device blocks to prefetch.
type prefetchRun struct {
	start int64
	n     int
}

// prefetcher is what a store's readahead shares: the layout that maps a
// window, the cache it fills, and staging buffers, so that a window
// costs no allocation and a fill in flight holds no pooled buffer.
type prefetcher struct {
	lay    *layout.Store
	cache  *cache.BlockCache
	bs     int
	stages sync.Pool // *[]byte, grown to the longest run staged in it
}

func newPrefetcher(lay *layout.Store, c *cache.BlockCache) *prefetcher {
	return &prefetcher{lay: lay, cache: c, bs: int(lay.BlockSize()), stages: sync.Pool{New: func() any { return new([]byte) }}}
}

// window maps file blocks [from, from+count) of o, clipped to its size,
// and queues them on t as runs of device blocks; holes are skipped. The
// caller holds o's object lock.
func (p *prefetcher) window(t *SeqTracker, o *layout.Onode, from int64, count int) {
	var r prefetchRun
	last := min(from+int64(count), int64((o.Size+uint64(p.bs)-1)/uint64(p.bs)))
	for fb := from; fb < last; {
		phys, n, err := p.lay.Map(o, fb, int(last-fb))
		if err != nil {
			fb++
			continue
		}
		for fb += int64(n); phys != 0 && n > 0; {
			if r.n == 0 || r.start+int64(r.n) != phys || r.n == blockdev.RunLimit {
				t.push(p, r)
				r = prefetchRun{phys, 0}
			}
			k := min(n, blockdev.RunLimit-r.n)
			r.n, phys, n = r.n+k, phys+int64(k), n-k
		}
	}
	t.push(p, r)
}

// fill installs run r in the cache through a staging buffer of p's.
func (p *prefetcher) fill(r prefetchRun) {
	stage := p.stages.Get().(*[]byte)
	if len(*stage) < r.n*p.bs {
		*stage = make([]byte, r.n*p.bs)
	}
	p.cache.Prefetch(r.start, r.n, *stage)
	p.stages.Put(stage)
}
