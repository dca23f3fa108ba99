package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func newShardedPoolFile(t *testing.T, opts PoolOpts) (*Pool, *File) {
	t.Helper()
	p := NewPoolWith(opts)
	f, err := p.OpenFile(filepath.Join(t.TempDir(), "sharded.pages"))
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	t.Cleanup(func() { f.Disk().Close() })
	return p, f
}

// writePages appends n pages whose first bytes encode their page
// number, so readers can verify they got the right page.
func writePages(t *testing.T, p *Pool, f *File, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		pg, err := p.NewPage(f)
		if err != nil {
			t.Fatalf("NewPage %d: %v", i, err)
		}
		pg.Data()[0] = byte(i)
		pg.Data()[1] = byte(i >> 8)
		pg.MarkDirty()
		pg.Unpin()
	}
}

func checkPageByte(t *testing.T, pg *Page, want int) {
	t.Helper()
	if got := int(pg.Data()[0]) | int(pg.Data()[1])<<8; got != want {
		t.Fatalf("page %s holds %d, want %d", pg.Key(), got, want)
	}
}

func TestShardedPoolBasic(t *testing.T) {
	p, f := newShardedPoolFile(t, PoolOpts{Frames: 16, Shards: 4})
	if p.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", p.NumShards())
	}
	if p.NumFrames() != 16 {
		t.Fatalf("NumFrames = %d, want 16", p.NumFrames())
	}
	writePages(t, p, f, 32)
	for i := 0; i < 32; i++ {
		pg, err := p.Fetch(f, uint32(i))
		if err != nil {
			t.Fatalf("Fetch %d: %v", i, err)
		}
		checkPageByte(t, pg, i)
		pg.Unpin()
	}
}

func TestShardCountRounding(t *testing.T) {
	for _, c := range []struct{ frames, shards, want int }{
		{16, 0, 1},   // default: single global shard
		{16, 1, 1},   // explicit global
		{16, 3, 2},   // rounded down to a power of two
		{16, 8, 8},   // exact
		{4, 64, 4},   // clamped to frames
		{3, 64, 2},   // clamped, then rounded
		{16, 16, 16}, // one frame per shard
	} {
		p := NewPoolWith(PoolOpts{Frames: c.frames, Shards: c.shards})
		if p.NumShards() != c.want {
			t.Fatalf("frames=%d shards=%d: NumShards = %d, want %d",
				c.frames, c.shards, p.NumShards(), c.want)
		}
	}
}

// TestShardedPoolStealsFrames checks the global-eviction contract: a
// fetch only fails with ErrPoolFull when every frame of every shard is
// pinned, even when the target page's own shard has no evictable frame
// (the fetch steals one from another shard).
func TestShardedPoolStealsFrames(t *testing.T) {
	p, f := newShardedPoolFile(t, PoolOpts{Frames: 4, Shards: 4})
	writePages(t, p, f, 32)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Pin three pages — wherever they hash, at most one frame per shard
	// remains evictable, and some shards may have none.
	var pinned []*Page
	for i := 0; i < 3; i++ {
		pg, err := p.Fetch(f, uint32(i))
		if err != nil {
			t.Fatalf("pin %d: %v", i, err)
		}
		pinned = append(pinned, pg)
	}
	// Every other page must still be fetchable through the one free
	// frame, no matter which shard it hashes to.
	for i := 3; i < 32; i++ {
		pg, err := p.Fetch(f, uint32(i))
		if err != nil {
			t.Fatalf("Fetch %d with one free frame: %v", i, err)
		}
		checkPageByte(t, pg, i)
		pg.Unpin()
	}
	// Pin a fourth page: now the pool is truly full.
	pg4, err := p.Fetch(f, 3)
	if err != nil {
		t.Fatalf("pin 4th: %v", err)
	}
	if _, err := p.Fetch(f, 10); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("Fetch on a fully pinned pool: %v, want ErrPoolFull", err)
	}
	pg4.Unpin()
	for _, pg := range pinned {
		pg.Unpin()
	}
	if _, err := p.Fetch(f, 10); err != nil {
		t.Fatalf("Fetch after unpinning: %v", err)
	}
}

// TestPoolStressRace hammers one sharded pool from many goroutines —
// concurrent Fetch/Unpin/MarkDirty/NewPage plus CloseFile of a private
// file — and is meant to run under -race (make check does).
func TestPoolStressRace(t *testing.T) {
	p := NewPoolWith(PoolOpts{Frames: 32, Shards: 8})
	dir := t.TempDir()
	shared, err := p.OpenFile(filepath.Join(dir, "shared.pages"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shared.Disk().Close() })
	const sharedPages = 64
	writePages(t, p, shared, sharedPages)

	const goroutines = 8
	const iters = 300
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				switch rng.Intn(10) {
				case 0:
					// Grow, scan and retire a private file: exercises
					// NewPage, MarkDirty write-back and CloseFile
					// against concurrent traffic on the shared file.
					path := filepath.Join(dir, fmt.Sprintf("g%d-i%d.pages", g, i))
					priv, err := p.OpenFile(path)
					if err != nil {
						errCh <- err
						return
					}
					for j := 0; j < 4; j++ {
						pg, err := p.NewPage(priv)
						if err != nil {
							errCh <- fmt.Errorf("private NewPage: %w", err)
							return
						}
						pg.Data()[0] = byte(j)
						pg.MarkDirty()
						pg.Unpin()
					}
					if err := p.CloseFile(priv); err != nil {
						errCh <- fmt.Errorf("CloseFile: %w", err)
						return
					}
				default:
					// Mostly sequential fetches with occasional jumps,
					// so sequential and random reads interleave under
					// contention.
					page := uint32((i + g*7) % sharedPages)
					if rng.Intn(4) == 0 {
						page = uint32(rng.Intn(sharedPages))
					}
					pg, err := p.Fetch(shared, page)
					if err != nil {
						errCh <- fmt.Errorf("Fetch %d: %w", page, err)
						return
					}
					checkPageByte(t, pg, int(page))
					pg.Unpin()
				}
			}
			errCh <- nil
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The pool must still be coherent: flush and re-verify everything.
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll after stress: %v", err)
	}
	for i := 0; i < sharedPages; i++ {
		pg, err := p.Fetch(shared, uint32(i))
		if err != nil {
			t.Fatalf("post-stress Fetch %d: %v", i, err)
		}
		checkPageByte(t, pg, i)
		pg.Unpin()
	}
}

// TestShardedSequentialReadsExact scans a file from a cold 4-shard
// pool: the shards must not disturb the seed accounting contract, so
// every page is read exactly once and every read is sequential.
func TestShardedSequentialReadsExact(t *testing.T) {
	p, f := newShardedPoolFile(t, PoolOpts{Frames: 64, Shards: 4})
	const pages = 32
	writePages(t, p, f, pages)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	for i := 0; i < pages; i++ {
		pg, err := p.Fetch(f, uint32(i))
		if err != nil {
			t.Fatalf("Fetch %d: %v", i, err)
		}
		checkPageByte(t, pg, i)
		pg.Unpin()
	}
	st := p.Stats()
	if st.SeqReads != pages || st.RandReads != 0 {
		t.Fatalf("cold sharded scan: %s, want seq=%d rand=0", st, pages)
	}
}

// TestShardedPoolThrash scans a file eight times the pool's size twice
// through a 2-shard pool: pages are evicted, stolen across shards and
// reloaded, and none of it may break page contents, read accounting or
// pin accounting.
func TestShardedPoolThrash(t *testing.T) {
	p, f := newShardedPoolFile(t, PoolOpts{Frames: 8, Shards: 2})
	const pages = 64
	writePages(t, p, f, pages)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	for round := 0; round < 2; round++ {
		for i := 0; i < pages; i++ {
			pg, err := p.Fetch(f, uint32(i))
			if err != nil {
				t.Fatalf("round %d Fetch %d: %v", round, i, err)
			}
			checkPageByte(t, pg, i)
			pg.Unpin()
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll after eviction churn: %v", err)
	}
	if st := p.Stats(); st.Reads() < pages {
		t.Fatalf("Reads = %d, want at least %d: %s", st.Reads(), pages, st)
	}
}

// TestShardedStatsAggregate checks that per-shard counters sum into one
// coherent Stats snapshot and that ResetStats clears all shards.
func TestShardedStatsAggregate(t *testing.T) {
	p, f := newShardedPoolFile(t, PoolOpts{Frames: 32, Shards: 8})
	const pages = 16
	writePages(t, p, f, pages)
	st := p.Stats()
	if st.Allocs != pages || st.Writes != 0 {
		t.Fatalf("after appends: %s, want allocs=%d writes=0", st, pages)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if st.Writes != pages {
		t.Fatalf("after flush: %s, want writes=%d", st, pages)
	}
	if st.FlushedAll != 1 {
		t.Fatalf("FlushedAll = %d, want 1", st.FlushedAll)
	}
	for i := 0; i < pages; i++ {
		pg, err := p.Fetch(f, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin()
	}
	if st = p.Stats(); st.Reads() != pages {
		t.Fatalf("after re-read: %s, want %d reads", st, pages)
	}
	p.ResetStats()
	if st = p.Stats(); st != (Stats{}) {
		t.Fatalf("after ResetStats: %s, want zeros", st)
	}
}

// TestUnpinIsLockFreeUnderLockedShards pins a page, then verifies that
// Unpin and MarkDirty complete while every shard mutex is held — the
// atomic-pin protocol the sharded pool's steady state depends on.
func TestUnpinIsLockFreeUnderLockedShards(t *testing.T) {
	p, f := newShardedPoolFile(t, PoolOpts{Frames: 8, Shards: 2})
	writePages(t, p, f, 4)
	pg, err := p.Fetch(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.lockAll()
	done := make(chan struct{})
	go func() {
		pg.MarkDirty()
		pg.Unpin()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		p.unlockAll()
		t.Fatal("Unpin/MarkDirty blocked on a shard lock")
	}
	p.unlockAll()
}
