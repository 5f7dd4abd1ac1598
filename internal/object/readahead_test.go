package object

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"nasd/internal/blockdev"
)

// settle returns once the readahead queued for object id of partition
// 1 has been filled, so a test can look at what it did.
func settle(s *Store, id uint64) {
	k := objKey{1, id}
	l := s.locks.acquire(k, false)
	l.seq.drain()
	s.locks.release(k, l, false, false)
}

// gateDisk holds every device read that touches a held block until the
// gate opens, and reports each such read on entered as it arrives.
type gateDisk struct {
	*blockdev.MemDisk
	mu      sync.Mutex
	held    map[int64]bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateDisk() *gateDisk {
	return &gateDisk{MemDisk: blockdev.NewMemDisk(4096, 4096), held: map[int64]bool{}, entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (d *gateDisk) hold(blocks []int64) {
	d.mu.Lock()
	for _, b := range blocks {
		d.held[b] = true
	}
	d.mu.Unlock()
}

func (d *gateDisk) holds(start int64, n int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for b := start; b < start+int64(n); b++ {
		if d.held[b] {
			return true
		}
	}
	return false
}

func (d *gateDisk) ReadBlocks(start int64, buf []byte) error {
	if d.holds(start, len(buf)/d.BlockSize()) {
		d.entered <- struct{}{}
		<-d.release
	}
	return d.MemDisk.ReadBlocks(start, buf)
}

func (d *gateDisk) ReadBlock(b int64, buf []byte) error { return d.ReadBlocks(b, buf) }

// open lets every held read through, now and from now on.
func (d *gateDisk) open() { d.once.Do(func() { close(d.release) }) }

// await returns what ch delivers, failing the test if nothing comes
// within ten seconds.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: nothing after 10 s", what)
	}
	panic("unreachable")
}

// physOf maps file blocks [first, first+n) of an object to device blocks.
func physOf(t *testing.T, s *Store, id uint64, first, n int64) []int64 {
	t.Helper()
	_, o, err := s.classic.lookup(1, id)
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for fb := first; fb < first+n; fb++ {
		phys, err := mapOne(s.classic.lay, &o, fb)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, phys)
	}
	return out
}

// dropCached flushes the store and evicts an object's data blocks.
func dropCached(t *testing.T, s *Store, id uint64, blocks int64) {
	t.Helper()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, b := range physOf(t, s, id, 0, blocks) {
		s.classic.cache.Invalidate(b)
	}
}

// TestSequentialWalkReadsInDeviceRuns: once the window has grown, a
// sequential 64 KiB walk costs the device one call per RunLimit blocks,
// and one more where the object's blocks are not consecutive on the
// device (the layout puts a pointer block after every 512 data blocks,
// and a run stops there).
func TestSequentialWalkReadsInDeviceRuns(t *testing.T) {
	const k64, size, ramp = 64 << 10, 8 << 20, 1 << 20
	s, dev := newExtentStore(t, Config{})
	id, _ := s.Create(1)
	data := pattern(11, size)
	if err := s.Write(1, id, 0, data); err != nil {
		t.Fatal(err)
	}
	chill(t, s, dev, id)
	breaks := 0
	phys := physOf(t, s, id, ramp/4096, (size-ramp)/4096)
	for i := 1; i < len(phys); i++ {
		if phys[i] != phys[i-1]+1 {
			breaks++
		}
	}
	for off := 0; off < size; off += k64 {
		if off == ramp {
			dev.reset()
		}
		mustRead(t, s, id, uint64(off), data[off:off+k64])
		settle(s, id)
	}
	if most := size/4096/blockdev.RunLimit + breaks; dev.calls > most {
		t.Fatalf("%d device reads for the %d MiB past the ramp, want at most %d (%d breaks in the object's runs)", dev.calls, (size-ramp)>>20, most, breaks)
	}
}

// TestRandomReadsPrefetchOneFirstWindowAtMost: a read at offset 0, or
// one that continues no stream, prefetches at most the first window.
// Lanes of a striped object are read this way, and a larger window
// there queues other reads behind it.
func TestRandomReadsPrefetchOneFirstWindowAtMost(t *testing.T) {
	const k64, size = 64 << 10, 4 << 20
	s, dev := newExtentStore(t, Config{})
	id, _ := s.Create(1)
	data := pattern(12, size)
	if err := s.Write(1, id, 0, data); err != nil {
		t.Fatal(err)
	}
	chill(t, s, dev, id)
	rng := rand.New(rand.NewPCG(7, 38))
	end := -1 // one past the previous read
	for i := 0; i < 64; i++ {
		off := rng.IntN(size/k64) * k64
		if i%16 == 0 {
			off = 0
		}
		if off == end {
			continue // that one is sequential
		}
		before := s.CacheStats().Prefetches
		mustRead(t, s, id, uint64(off), data[off:off+k64])
		settle(s, id)
		if got := s.CacheStats().Prefetches - before; got > int64(s.cfg.ReadaheadBlocks) {
			t.Fatalf("read %d at %d prefetched %d blocks, want at most %d", i, off, got, s.cfg.ReadaheadBlocks)
		}
		end = off + k64
	}
}

// TestReadReturnsWhileReadaheadHeld: the readahead a read asks for is
// not on its reply path. The device holds the window's blocks, and the
// read still returns.
func TestReadReturnsWhileReadaheadHeld(t *testing.T) {
	const k64 = 64 << 10
	dev := newGateDisk()
	defer dev.open()
	s, err := Format(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePartition(1, 0); err != nil {
		t.Fatal(err)
	}
	id, _ := s.Create(1)
	data := pattern(13, 2*k64)
	if err := s.Write(1, id, 0, data); err != nil {
		t.Fatal(err)
	}
	dropCached(t, s, id, 32)
	window := physOf(t, s, id, 16, 16)
	dev.hold(window)
	done := make(chan struct{})
	go func() {
		defer close(done)
		mustRead(t, s, id, 0, data[:k64])
	}()
	await(t, done, "the read, with its readahead held in the device")
	await(t, dev.entered, "the readahead reaching the device")
	dev.open()
	settle(s, id)
	for _, b := range window {
		if !s.classic.cache.Contains(b) {
			t.Fatalf("block %d of the window is not cached once the device let it through", b)
		}
	}
}

// TestFreeingDrainsReadahead: a remove or truncate that frees an
// object's blocks waits for the readahead queued on it, so no fill puts
// the freed blocks' old bytes back in the cache. Object a's window is
// two runs: file blocks 16-19 are shared with a version of a, 20-31
// were rewritten after it and are a's alone. The device holds the
// first run, so the second is still queued when the remove or truncate
// starts; the device opens only once that waits on the queue. After
// it, none of the blocks it freed is cached, and an object written into
// them reads its own bytes.
func TestFreeingDrainsReadahead(t *testing.T) {
	for _, free := range []string{"remove", "truncate"} {
		t.Run(free, func(t *testing.T) {
			const k64 = 64 << 10
			dev := newGateDisk()
			defer dev.open()
			s, err := Format(dev, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CreatePartition(1, 0); err != nil {
				t.Fatal(err)
			}
			a, _ := s.Create(1)
			old := pattern(14, 4*k64)
			if err := s.Write(1, a, 0, old); err != nil {
				t.Fatal(err)
			}
			v, err := s.VersionObject(1, a)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Write(1, a, 20*4096, pattern(16, 12*4096)); err != nil {
				t.Fatal(err)
			}
			dropCached(t, s, a, 64)
			window := physOf(t, s, a, 16, 16)
			if window[3] == window[0]+3 && window[4] == window[3]+1 {
				t.Fatalf("a's window is one run: %v", window)
			}
			shared, own := window[:4], window[4:]
			dev.hold(shared)
			mustRead(t, s, a, 0, old[:k64])
			await(t, dev.entered, "a's first readahead run reaching the device")

			k := objKey{1, a}
			sh := s.locks.shardOf(k)
			sh.mu.Lock()
			l := sh.m[k]
			sh.mu.Unlock()
			done := make(chan error, 1)
			go func() {
				if free == "remove" {
					done <- s.Remove(1, a)
				} else {
					done <- s.SetAttr(1, a, Attributes{Size: 0}, SetSize)
				}
			}()
			// Open the device once the operation waits on a's queue, or
			// once it has returned without waiting.
			waiting := func() bool {
				l.seq.mu.Lock()
				defer l.seq.mu.Unlock()
				return l.seq.drained != nil
			}
			var result error
			returned := false
			for deadline := time.Now().Add(10 * time.Second); !returned && !waiting(); runtime.Gosched() {
				select {
				case result = <-done:
					returned = true
				default:
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s neither returned nor waited for the readahead in 10 s", free)
				}
			}
			dev.open()
			if !returned {
				result = await(t, done, free)
			}
			if result != nil {
				t.Fatal(result)
			}
			if free == "truncate" {
				settle(s, a)
			}
			for _, p := range own {
				if s.classic.cache.Contains(p) {
					t.Fatalf("block %d freed by the %s is cached: a fill landed after its invalidation", p, free)
				}
			}

			// c is allocated after v, where a's own blocks were, and written.
			c, _ := s.Create(1)
			if err := s.SetAttr(1, c, Attributes{Cluster: v}, SetCluster); err != nil {
				t.Fatal(err)
			}
			fresh := pattern(15, 4*k64)
			if err := s.Write(1, c, 0, fresh); err != nil {
				t.Fatal(err)
			}
			reused := map[int64]bool{}
			for _, p := range physOf(t, s, c, 0, 64) {
				reused[p] = true
			}
			overlap := 0
			for _, p := range own {
				if reused[p] {
					overlap++
				}
			}
			if overlap == 0 {
				t.Fatal("c got none of the freed blocks: nothing to test")
			}
			mustRead(t, s, c, 0, fresh)
			dropCached(t, s, c, 64)
			mustRead(t, s, c, 0, fresh)
		})
	}
}

// TestRecycledLockEntryStartsEmpty: an entry that goes back to the pool
// forgets its stream and its window.
func TestRecycledLockEntryStartsEmpty(t *testing.T) {
	lm := newLockManager(nil)
	k := objKey{1, 42}
	l := lm.acquire(k, false)
	l.seq.nextOff, l.seq.raEnd, l.seq.mark, l.seq.window = 1<<20, 512, 384, 256
	lm.release(k, l, false, true)
	if q := &l.seq; q.nextOff != 0 || q.raEnd != 0 || q.mark != 0 || q.window != 0 {
		t.Fatalf("recycled entry keeps its tracker: next %d, window end %d, mark %d, size %d",
			q.nextOff, q.raEnd, q.mark, q.window)
	}
}

// BenchmarkConcurrentStreams: eight readers each walk their own 8 MiB
// object in 64 KiB reads, at once, on one store over a medium modelled
// like the benchmark's (200 MiB/s, 50 us a device call). One op is one
// walk of all eight objects from a cold cache. It reports the device
// reads per MiB walked, the blocks per device read, the blocks read per
// block wanted (above 1 when readahead is evicted before it is read) and
// the throughput against the medium's 210 MB/s.
func BenchmarkConcurrentStreams(b *testing.B) {
	for _, cacheBlocks := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("cache=%d", cacheBlocks), func(b *testing.B) {
			const streams, size, k64 = 8, 8 << 20, 64 << 10
			mem := newCountingRanger(4096, 20480)
			s, err := Format(blockdev.NewThrottle(mem, 200<<20, 50*time.Microsecond), Config{CacheBlocks: cacheBlocks})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.CreatePartition(1, 0); err != nil {
				b.Fatal(err)
			}
			ids := make([]uint64, streams)
			data := make([]byte, size)
			for i := range ids {
				ids[i], _ = s.Create(1)
				if err := s.Write(1, ids[i], 0, data); err != nil {
					b.Fatal(err)
				}
			}
			cold := func() {
				for _, id := range ids {
					settle(s, id)
				}
				if err := s.Flush(); err != nil {
					b.Fatal(err)
				}
				for _, id := range ids {
					_, o, _ := s.classic.lookup(1, id)
					_ = s.classic.lay.ForEachBlock(&o, func(phys int64, isPtr bool) error {
						if !isPtr {
							s.classic.cache.Invalidate(phys)
						}
						return nil
					})
				}
				mem.reset()
			}
			var calls, blocks int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cold()
				b.StartTimer()
				var wg sync.WaitGroup
				for _, id := range ids {
					wg.Add(1)
					go func(id uint64) {
						defer wg.Done()
						for off := 0; off < size; off += k64 {
							if _, err := s.Read(1, id, uint64(off), k64); err != nil {
								b.Error(err)
								return
							}
						}
					}(id)
				}
				wg.Wait()
				b.StopTimer()
				for _, id := range ids {
					settle(s, id)
				}
				mem.mu.Lock()
				calls += mem.calls
				for _, n := range mem.perBlock {
					blocks += n
				}
				mem.mu.Unlock()
				b.StartTimer()
			}
			b.ReportMetric(float64(calls)/float64(b.N)/float64(streams*size>>20), "devreads/MiB")
			b.ReportMetric(float64(blocks)/float64(calls), "blocks/devread")
			b.ReportMetric(float64(blocks)/float64(b.N)/float64(streams*size/4096), "blocksread/blockwanted")
			b.ReportMetric(float64(streams*size)/(float64(b.Elapsed().Seconds())/float64(b.N))/1e6, "MB/s")
		})
	}
}
