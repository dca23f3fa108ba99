package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// File is a page file registered with a Pool. All page access goes through
// Pool.Fetch / Pool.NewPage so that caching and I/O accounting apply.
type File struct {
	id   FileID
	disk *DiskManager

	// lastRead is the last physically read page (-1 = none) and drives
	// the seed accounting contract: a read is sequential iff it follows
	// the file's previous physical read.
	lastRead atomic.Int64

	// Per-file I/O counters, mirroring the read-side fields of Stats.
	// Concurrent executor tasks that touch disjoint file sets use these to
	// attribute I/O without double-counting the way pool-global deltas
	// would. Write-side counters (Writes/Allocs/Evictions) stay pool-only:
	// they are frame-lifecycle events, not demand I/O of a file's reader.
	ioSeqReads  atomic.Int64
	ioRandReads atomic.Int64
	ioHits      atomic.Int64
}

// IOStats returns a snapshot of the read-side I/O counters attributed to
// this file. Safe for concurrent use; callers measure a window of
// activity by subtracting two snapshots.
func (f *File) IOStats() Stats {
	return Stats{
		SeqReads:  f.ioSeqReads.Load(),
		RandReads: f.ioRandReads.Load(),
		Hits:      f.ioHits.Load(),
	}
}

// ID returns the pool-local identifier of the file.
func (f *File) ID() FileID { return f.id }

// NumPages returns the number of allocated pages in the file.
func (f *File) NumPages() uint32 { return f.disk.NumPages() }

// Path returns the path of the backing file.
func (f *File) Path() string { return f.disk.Path() }

// Disk exposes the underlying DiskManager (used by tests for fault
// injection).
func (f *File) Disk() *DiskManager { return f.disk }

// noteRead records a physical read of page and reports whether it was
// sequential: the first read since a reset, or the page right after the
// file's previous physical read.
func (f *File) noteRead(page uint32) bool {
	last := f.lastRead.Swap(int64(page))
	return last < 0 || int64(page) == last+1
}

// Page is a pinned page in the buffer pool. Data must not be retained
// after Unpin.
type Page struct {
	key   PageKey
	frame *frame
	pool  *Pool
}

// Key returns the identity of the pinned page.
func (p *Page) Key() PageKey { return p.key }

// Data returns the page's PageSize-byte buffer.
func (p *Page) Data() []byte { return p.frame.buf }

// MarkDirty records that the page buffer was modified and must be written
// back before its frame is recycled. Lock-free: the dirty bit is atomic
// on the frame.
func (p *Page) MarkDirty() {
	p.frame.dirty.Store(true)
}

// Unpin releases the caller's pin. The page may be evicted afterwards.
// Lock-free: the pin count and second-chance bit are atomics on the
// frame, so steady-state page release never touches a shard lock.
func (p *Page) Unpin() {
	fr := p.frame
	fr.referenced.Store(true)
	for {
		pins := fr.pins.Load()
		if pins <= 0 || fr.pins.CompareAndSwap(pins, pins-1) {
			return
		}
	}
}

// frame is one page-sized buffer slot. The hot per-access state (pins,
// dirty, referenced) is atomic so pinned readers never take
// a lock; key/buf/valid/disk are guarded by the owning shard's mutex.
// pins is only ever incremented while holding that mutex, which is what
// makes the victim scan's pins==0 check sound.
type frame struct {
	key        PageKey
	buf        []byte
	disk       *DiskManager // backing file of key, for write-back
	pins       atomic.Int32
	dirty      atomic.Bool
	referenced atomic.Bool // clock hand second-chance bit
	valid      bool
}

// writeBack flushes the frame's page to its backing file and clears the
// dirty bit, crediting the write to st.
func (fr *frame) writeBack(st *Stats) error {
	if fr.disk == nil {
		return fmt.Errorf("storage: write-back for unregistered %s", fr.key)
	}
	if err := fr.disk.WritePage(fr.key.Page, fr.buf); err != nil {
		return err
	}
	fr.dirty.Store(false)
	st.Writes++
	return nil
}

// poolShard is one lock domain of the pool: a slice of the frames, the
// directory entries for the page keys that hash here, its own clock
// hand, and its own Stats (aggregated on read so counting never shares a
// cache line across shards).
type poolShard struct {
	mu     sync.Mutex
	frames []*frame
	dir    map[PageKey]*frame
	hand   int
	stats  Stats
}

// Pool is a buffer pool of fixed-size frames shared by any number of page
// files, with clock (second-chance) replacement per shard. The frame
// directory is split into power-of-two shards by a hash of the PageKey;
// each shard has its own mutex, so fetches of different pages contend
// only when they hash together. With Shards=1 (the NewPool default) the
// pool behaves exactly like a single global-mutex pool.
//
// It tracks sequential versus random reads per file: a read of page n is
// sequential when the previous physical read of the same file was page
// n-1 (or this is the first read of the file after a reset).
type Pool struct {
	shards    []*poolShard
	shardMask uint32
	nframes   int

	fmu    sync.RWMutex
	files  map[FileID]*File
	byPath map[string]*File
	nextID FileID

	flushedAll atomic.Int64
}

// PoolOpts configures a Pool.
type PoolOpts struct {
	// Frames is the pool capacity in 8 KiB pages. Must be at least 1.
	Frames int
	// Shards is the number of lock shards the frame directory is split
	// into. Rounded down to a power of two and clamped to Frames; 0 or 1
	// means a single global shard (the seed behavior).
	Shards int
}

// NewPool creates a single-shard pool (global mutex) with the given
// number of frames. frames must be at least 1.
func NewPool(frames int) *Pool {
	return NewPoolWith(PoolOpts{Frames: frames})
}

// NewPoolWith creates a pool with explicit sharding options.
func NewPoolWith(opts PoolOpts) *Pool {
	if opts.Frames < 1 {
		panic("storage: pool needs at least one frame")
	}
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > opts.Frames {
		shards = opts.Frames
	}
	for shards&(shards-1) != 0 {
		shards &= shards - 1 // round down to a power of two
	}
	p := &Pool{
		shards:    make([]*poolShard, shards),
		shardMask: uint32(shards - 1),
		nframes:   opts.Frames,
		files:     make(map[FileID]*File),
		byPath:    make(map[string]*File),
	}
	for i := range p.shards {
		p.shards[i] = &poolShard{dir: make(map[PageKey]*frame)}
	}
	for i := 0; i < opts.Frames; i++ {
		s := p.shards[i%len(p.shards)]
		s.frames = append(s.frames, &frame{buf: make([]byte, PageSize)})
	}
	return p
}

// NumFrames returns the pool capacity in pages.
func (p *Pool) NumFrames() int { return p.nframes }

// NumShards returns the number of lock shards.
func (p *Pool) NumShards() int { return len(p.shards) }

// shardOf maps a page key to its lock shard.
func (p *Pool) shardOf(key PageKey) *poolShard {
	if p.shardMask == 0 {
		return p.shards[0]
	}
	h := (uint64(key.File)<<32 | uint64(key.Page)) * 0x9E3779B97F4A7C15
	return p.shards[uint32(h>>32)&p.shardMask]
}

// lockAll acquires every shard lock in index order (the one sanctioned
// ordering for holding more than one).
func (p *Pool) lockAll() {
	for _, s := range p.shards {
		s.mu.Lock()
	}
}

func (p *Pool) unlockAll() {
	for _, s := range p.shards {
		s.mu.Unlock()
	}
}

// OpenFile opens a page file at path and registers it with the pool.
// Opening a path that is already registered returns the existing File, so
// a page is never cached under two identities.
func (p *Pool) OpenFile(path string) (*File, error) {
	p.fmu.RLock()
	f, ok := p.byPath[path]
	p.fmu.RUnlock()
	if ok {
		return f, nil
	}
	disk, err := OpenDisk(path)
	if err != nil {
		return nil, err
	}
	return p.register(disk), nil
}

func (p *Pool) register(disk *DiskManager) *File {
	p.fmu.Lock()
	defer p.fmu.Unlock()
	if f, ok := p.byPath[disk.Path()]; ok {
		// Lost a race with another opener of the same path.
		disk.Close()
		return f
	}
	id := p.nextID
	p.nextID++
	f := &File{id: id, disk: disk}
	f.lastRead.Store(-1)
	p.files[id] = f
	p.byPath[disk.Path()] = f
	return f
}

// Registered returns the File currently registered under path, if any.
// Epoch reclamation uses it to close retired files by path without
// reopening them.
func (p *Pool) Registered(path string) (*File, bool) {
	p.fmu.RLock()
	defer p.fmu.RUnlock()
	f, ok := p.byPath[path]
	return f, ok
}

// CloseFile flushes and drops every cached page of f, deregisters it and
// closes its backing file, so the path can be removed, renamed over, or
// reopened. Fails if any of f's pages is pinned; the caller must not
// race CloseFile against its own fetches or appends on the same file.
func (p *Pool) CloseFile(f *File) error {
	return p.closeFile(f, true)
}

// DiscardFile is CloseFile without writeback: dirty pages are dropped on
// the floor. For files about to be unlinked — epoch reclamation of
// replaced heap and index files — flushing under the pool-wide lock
// would make every concurrent fetch wait out disk writes for data that
// is being deleted.
func (p *Pool) DiscardFile(f *File) error {
	return p.closeFile(f, false)
}

func (p *Pool) closeFile(f *File, flush bool) error {
	p.fmu.RLock()
	registered := p.files[f.id] == f
	p.fmu.RUnlock()
	if !registered {
		return fmt.Errorf("storage: file %s is not registered", f.Path())
	}
	p.lockAll()
	for _, s := range p.shards {
		for _, fr := range s.frames {
			if fr.valid && fr.key.File == f.id && fr.pins.Load() > 0 {
				p.unlockAll()
				return fmt.Errorf("storage: CloseFile with pinned page %s", fr.key)
			}
		}
	}
	for _, s := range p.shards {
		for _, fr := range s.frames {
			if !fr.valid || fr.key.File != f.id {
				continue
			}
			if flush && fr.dirty.Load() {
				if err := fr.writeBack(&s.stats); err != nil {
					p.unlockAll()
					return err
				}
			}
			fr.dirty.Store(false)
			delete(s.dir, fr.key)
			fr.valid = false
			fr.referenced.Store(false)
		}
	}
	p.unlockAll()
	p.fmu.Lock()
	delete(p.files, f.id)
	delete(p.byPath, f.disk.Path())
	p.fmu.Unlock()
	return f.disk.Close()
}

// CloseFiles flushes the pool and closes every registered file. The pool
// may be reused afterwards by reopening files.
func (p *Pool) CloseFiles() error {
	if err := p.FlushAll(); err != nil {
		return err
	}
	p.fmu.Lock()
	defer p.fmu.Unlock()
	var firstErr error
	for id, f := range p.files {
		if err := f.disk.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(p.files, id)
	}
	p.byPath = make(map[string]*File)
	return firstErr
}

// Stats returns a copy of the accumulated I/O statistics, aggregated
// over the shards.
func (p *Pool) Stats() Stats {
	var total Stats
	for _, s := range p.shards {
		s.mu.Lock()
		total.Add(s.stats)
		s.mu.Unlock()
	}
	total.FlushedAll += p.flushedAll.Load()
	return total
}

// ResetStats zeroes the I/O counters.
func (p *Pool) ResetStats() {
	for _, s := range p.shards {
		s.mu.Lock()
		s.stats = Stats{}
		s.mu.Unlock()
	}
	p.flushedAll.Store(0)
}

// Fetch pins the given page, reading it from disk if necessary. A miss
// performs the read while holding the page's shard lock, so concurrent
// fetches of the same page queue on the shard and find the directory
// entry when they wake — a page is never read twice concurrently.
func (p *Pool) Fetch(f *File, page uint32) (*Page, error) {
	pg := new(Page)
	if err := p.FetchInto(f, page, pg); err != nil {
		return nil, err
	}
	return pg, nil
}

// FetchInto pins a page like Fetch but fills a caller-owned Page value
// instead of allocating one, so tight fetch loops (the vectorized index
// probe's page-batched reads) stay allocation-free: the caller keeps
// one Page on its stack and reuses it pin after pin.
func (p *Pool) FetchInto(f *File, page uint32, out *Page) error {
	key := PageKey{File: f.id, Page: page}
	s := p.shardOf(key)
	s.mu.Lock()
	if fr, ok := s.dir[key]; ok {
		hitLocked(s, f, fr)
		*out = Page{key: key, frame: fr, pool: p}
		return nil
	}
	fr, retried, err := p.reserveLocked(s)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if retried {
		if exist, ok := s.dir[key]; ok {
			// Someone loaded the page while we were stealing a frame
			// from another shard; keep the spare as shard capacity.
			fr.pins.Store(0)
			hitLocked(s, f, exist)
			*out = Page{key: key, frame: exist, pool: p}
			return nil
		}
	}
	if err := f.disk.ReadPage(page, fr.buf); err != nil {
		fr.pins.Store(0)
		fr.valid = false
		s.mu.Unlock()
		return err
	}
	if f.noteRead(page) {
		s.stats.SeqReads++
		f.ioSeqReads.Add(1)
	} else {
		s.stats.RandReads++
		f.ioRandReads.Add(1)
	}
	fr.key = key
	fr.disk = f.disk
	fr.valid = true
	fr.dirty.Store(false)
	fr.referenced.Store(true)
	s.dir[key] = fr
	s.mu.Unlock()
	*out = Page{key: key, frame: fr, pool: p}
	return nil
}

// hitLocked pins fr as a pool hit of f under the locked shard s, counts
// the hit on the shard, and releases the shard lock before counting it
// on the file.
func hitLocked(s *poolShard, f *File, fr *frame) {
	fr.pins.Add(1)
	fr.referenced.Store(true)
	s.stats.Hits++
	s.mu.Unlock()
	f.ioHits.Add(1)
}

// NewPage allocates a fresh page in f and returns it pinned and dirty.
func (p *Pool) NewPage(f *File) (*Page, error) {
	page, err := f.disk.Allocate()
	if err != nil {
		return nil, err
	}
	key := PageKey{File: f.id, Page: page}
	s := p.shardOf(key)
	s.mu.Lock()
	s.stats.Allocs++
	fr, _, err := p.reserveLocked(s)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	clear(fr.buf)
	fr.key = key
	fr.disk = f.disk
	fr.valid = true
	fr.dirty.Store(true)
	fr.referenced.Store(true)
	s.dir[key] = fr
	s.mu.Unlock()
	return &Page{key: key, frame: fr, pool: p}, nil
}

// FlushAll writes back every dirty frame and drops all cached pages,
// simulating the paper's cold-cache discipline ("we flushed both the Unix
// file system buffer and Paradise buffer pool before running each test").
// Sequential-read tracking is also reset. It is an error to call FlushAll
// while pages are pinned.
func (p *Pool) FlushAll() error {
	p.fmu.RLock()
	files := make([]*File, 0, len(p.files))
	for _, f := range p.files {
		files = append(files, f)
	}
	p.fmu.RUnlock()
	p.lockAll()
	defer p.unlockAll()
	for _, s := range p.shards {
		for _, fr := range s.frames {
			if fr.valid && fr.pins.Load() > 0 {
				return fmt.Errorf("storage: FlushAll with pinned page %s", fr.key)
			}
		}
	}
	for _, s := range p.shards {
		for _, fr := range s.frames {
			if !fr.valid {
				continue
			}
			if fr.dirty.Load() {
				if err := fr.writeBack(&s.stats); err != nil {
					return err
				}
			}
			delete(s.dir, fr.key)
			fr.valid = false
			fr.referenced.Store(false)
		}
	}
	for _, f := range files {
		f.lastRead.Store(-1)
	}
	p.flushedAll.Add(1)
	return nil
}

// reserveLocked acquires a reusable frame for shard s, which must be
// locked. The frame comes back reserved: out of the directory with pins
// already 1, so no concurrent victim scan can hand it out twice. When s
// has no evictable frame the shard lock is dropped and a frame is stolen
// from another shard (migrating it into s), so the pool reports
// ErrPoolFull only when every frame pool-wide is pinned — the same
// semantics as a single global pool. The second result reports whether
// the shard lock was released and reacquired; callers must then recheck
// the directory.
func (p *Pool) reserveLocked(s *poolShard) (*frame, bool, error) {
	fr, err := s.victimLocked()
	if err == nil {
		return fr, false, nil
	}
	if err != ErrPoolFull || len(p.shards) == 1 {
		return nil, false, err
	}
	s.mu.Unlock()
	var stolen *frame
	stealErr := error(ErrPoolFull)
	for _, t := range p.shards {
		if t == s {
			continue
		}
		t.mu.Lock()
		fr, err := t.victimLocked()
		if err == nil {
			for i, g := range t.frames {
				if g == fr {
					t.frames[i] = t.frames[len(t.frames)-1]
					t.frames = t.frames[:len(t.frames)-1]
					break
				}
			}
			t.mu.Unlock()
			stolen, stealErr = fr, nil
			break
		}
		t.mu.Unlock()
		if err != ErrPoolFull {
			stealErr = err
			break
		}
	}
	s.mu.Lock()
	if stolen != nil {
		s.frames = append(s.frames, stolen)
	}
	return stolen, true, stealErr
}

// victimLocked finds a reusable frame in s with the clock algorithm,
// writing back its previous contents if dirty. The caller must hold
// s.mu.
func (s *poolShard) victimLocked() (*frame, error) {
	n := len(s.frames)
	for sweep := 0; sweep < 2*n; sweep++ {
		if s.hand >= n {
			s.hand = 0
		}
		fr := s.frames[s.hand]
		s.hand++
		if fr.pins.Load() > 0 {
			continue
		}
		if fr.valid && fr.referenced.Load() {
			fr.referenced.Store(false)
			continue
		}
		if fr.valid {
			if fr.dirty.Load() {
				if err := fr.writeBack(&s.stats); err != nil {
					return nil, err
				}
			}
			delete(s.dir, fr.key)
			fr.valid = false
			s.stats.Evictions++
		}
		fr.pins.Store(1)
		fr.referenced.Store(false)
		return fr, nil
	}
	return nil, ErrPoolFull
}
