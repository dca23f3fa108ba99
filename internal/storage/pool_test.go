package storage

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
)

func newPoolFile(t *testing.T, frames int) (*Pool, *File) {
	t.Helper()
	p := NewPool(frames)
	f, err := p.OpenFile(filepath.Join(t.TempDir(), "pool.pages"))
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	t.Cleanup(func() { f.Disk().Close() })
	return p, f
}

func fillPages(t *testing.T, p *Pool, f *File, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		pg, err := p.NewPage(f)
		if err != nil {
			t.Fatalf("NewPage %d: %v", i, err)
		}
		pg.Data()[0] = byte(i)
		pg.MarkDirty()
		pg.Unpin()
	}
}

func TestPoolNewPageAndFetch(t *testing.T) {
	p, f := newPoolFile(t, 4)
	fillPages(t, p, f, 3)
	for i := 0; i < 3; i++ {
		pg, err := p.Fetch(f, uint32(i))
		if err != nil {
			t.Fatalf("Fetch %d: %v", i, err)
		}
		if pg.Data()[0] != byte(i) {
			t.Fatalf("page %d byte = %d, want %d", i, pg.Data()[0], i)
		}
		pg.Unpin()
	}
}

func TestPoolEvictionWritesBackDirtyPages(t *testing.T) {
	p, f := newPoolFile(t, 2)
	fillPages(t, p, f, 8) // forces continual eviction through 2 frames
	for i := 0; i < 8; i++ {
		pg, err := p.Fetch(f, uint32(i))
		if err != nil {
			t.Fatalf("Fetch %d: %v", i, err)
		}
		if pg.Data()[0] != byte(i) {
			t.Fatalf("page %d lost its write: byte=%d", i, pg.Data()[0])
		}
		pg.Unpin()
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("expected evictions with a 2-frame pool and 8 pages")
	}
}

func TestPoolPinnedPagesAreNotEvicted(t *testing.T) {
	p, f := newPoolFile(t, 2)
	fillPages(t, p, f, 2)
	a, err := p.Fetch(f, 0)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	b, err := p.Fetch(f, 1)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if _, err := p.NewPage(f); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("NewPage with all frames pinned = %v, want ErrPoolFull", err)
	}
	a.Unpin()
	if _, err := p.NewPage(f); err != nil {
		t.Fatalf("NewPage after unpin: %v", err)
	}
	b.Unpin()
}

func TestPoolHitAccounting(t *testing.T) {
	p, f := newPoolFile(t, 4)
	fillPages(t, p, f, 1)
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	p.ResetStats()
	pg, _ := p.Fetch(f, 0)
	pg.Unpin()
	pg, _ = p.Fetch(f, 0)
	pg.Unpin()
	st := p.Stats()
	if st.Reads() != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 read and 1 hit", st)
	}
}

func TestPoolSequentialVsRandomClassification(t *testing.T) {
	p, f := newPoolFile(t, 2) // small pool so re-reads are physical
	fillPages(t, p, f, 6)
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	p.ResetStats()

	// Sequential pass: 0,1,2,3,4,5 -> all sequential (first read counts
	// as sequential).
	for i := 0; i < 6; i++ {
		pg, err := p.Fetch(f, uint32(i))
		if err != nil {
			t.Fatalf("Fetch %d: %v", i, err)
		}
		pg.Unpin()
	}
	st := p.Stats()
	if st.SeqReads != 6 || st.RandReads != 0 {
		t.Fatalf("sequential pass: %+v, want seq=6 rand=0", st)
	}

	// Random pass. After the sequential pass the 2-frame pool caches
	// pages 4 and 5, so 0, 3, 1 are all physical and non-contiguous.
	p.ResetStats()
	for _, n := range []uint32{0, 3, 1} {
		pg, err := p.Fetch(f, n)
		if err != nil {
			t.Fatalf("Fetch %d: %v", n, err)
		}
		pg.Unpin()
	}
	st = p.Stats()
	if st.RandReads != 3 {
		t.Fatalf("random pass: %+v, want rand=3", st)
	}
}

func TestPoolFlushAllResetsSequentialTracking(t *testing.T) {
	p, f := newPoolFile(t, 2)
	fillPages(t, p, f, 4)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	pg, _ := p.Fetch(f, 3) // first read after reset counts sequential
	pg.Unpin()
	if st := p.Stats(); st.SeqReads != 1 || st.RandReads != 0 {
		t.Fatalf("stats = %+v, want first read after flush to be sequential", st)
	}
}

func TestPoolFlushAllRefusesPinned(t *testing.T) {
	p, f := newPoolFile(t, 2)
	fillPages(t, p, f, 1)
	pg, _ := p.Fetch(f, 0)
	if err := p.FlushAll(); err == nil {
		t.Fatal("FlushAll succeeded with a pinned page")
	}
	pg.Unpin()
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll after unpin: %v", err)
	}
}

func TestPoolFlushAllPersists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "persist.pages")
	p := NewPool(2)
	f, err := p.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := p.NewPage(f)
	copy(pg.Data(), "durable")
	pg.MarkDirty()
	pg.Unpin()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	f.Disk().Close()

	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := make([]byte, PageSize)
	if err := d.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:7]) != "durable" {
		t.Fatalf("content = %q, want durable", buf[:7])
	}
}

func TestPoolMultipleFiles(t *testing.T) {
	p := NewPool(4)
	dir := t.TempDir()
	f1, err := p.OpenFile(filepath.Join(dir, "a.pages"))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := p.OpenFile(filepath.Join(dir, "b.pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Disk().Close()
	defer f2.Disk().Close()
	if f1.ID() == f2.ID() {
		t.Fatal("two files share a FileID")
	}
	pa, _ := p.NewPage(f1)
	pa.Data()[0] = 'a'
	pa.MarkDirty()
	pa.Unpin()
	pb, _ := p.NewPage(f2)
	pb.Data()[0] = 'b'
	pb.MarkDirty()
	pb.Unpin()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ga, _ := p.Fetch(f1, 0)
	gb, _ := p.Fetch(f2, 0)
	if ga.Data()[0] != 'a' || gb.Data()[0] != 'b' {
		t.Fatalf("cross-file mixup: got %c and %c", ga.Data()[0], gb.Data()[0])
	}
	ga.Unpin()
	gb.Unpin()
}

func TestPoolReadFaultPropagates(t *testing.T) {
	p, f := newPoolFile(t, 2)
	fillPages(t, p, f, 1)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	f.Disk().SetFault(func(op string, page uint32) error {
		if op == "read" {
			return boom
		}
		return nil
	})
	if _, err := p.Fetch(f, 0); !errors.Is(err, boom) {
		t.Fatalf("Fetch err = %v, want injected fault", err)
	}
	f.Disk().SetFault(nil)
	pg, err := p.Fetch(f, 0)
	if err != nil {
		t.Fatalf("Fetch after clearing fault: %v", err)
	}
	pg.Unpin()
}

func TestPoolConcurrentFetch(t *testing.T) {
	p, f := newPoolFile(t, 8)
	fillPages(t, p, f, 16)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pg, err := p.Fetch(f, uint32(i%16))
				if err != nil {
					errs <- err
					return
				}
				if pg.Data()[0] != byte(i%16) {
					errs <- errors.New("wrong page content under concurrency")
					pg.Unpin()
					return
				}
				pg.Unpin()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStatsSubAndAdd(t *testing.T) {
	a := Stats{SeqReads: 10, RandReads: 4, Writes: 2, Hits: 7}
	b := Stats{SeqReads: 6, RandReads: 1, Writes: 2, Hits: 3}
	d := a.Sub(b)
	if d.SeqReads != 4 || d.RandReads != 3 || d.Writes != 0 || d.Hits != 4 {
		t.Fatalf("Sub = %+v", d)
	}
	var acc Stats
	acc.Add(a)
	acc.Add(b)
	if acc.SeqReads != 16 || acc.Reads() != 21 {
		t.Fatalf("Add = %+v", acc)
	}
}

func TestPoolCloseFile(t *testing.T) {
	p := NewPool(4)
	dir := t.TempDir()
	path := filepath.Join(dir, "cf.pages")
	f, err := p.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := p.NewPage(f)
	copy(pg.Data(), "swapme")
	pg.MarkDirty()
	pg.Unpin()

	// Pinned pages block CloseFile.
	pinned, _ := p.Fetch(f, 0)
	if err := p.CloseFile(f); err == nil {
		t.Fatal("CloseFile succeeded with a pinned page")
	}
	pinned.Unpin()

	if err := p.CloseFile(f); err != nil {
		t.Fatalf("CloseFile: %v", err)
	}
	// Dirty page was written back.
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := d.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if string(buf[:6]) != "swapme" {
		t.Fatalf("content after CloseFile = %q", buf[:6])
	}
	// Closing again fails (deregistered).
	if err := p.CloseFile(f); err == nil {
		t.Fatal("double CloseFile succeeded")
	}
	// Fetch on the closed handle fails.
	if _, err := p.Fetch(f, 0); err == nil {
		t.Fatal("Fetch after CloseFile succeeded, want error")
	}
	// The path can be reopened and gets fresh identity.
	f2, err := p.OpenFile(path)
	if err != nil {
		t.Fatalf("reopen after CloseFile: %v", err)
	}
	if f2 == f {
		t.Fatal("reopen returned the closed handle")
	}
	pg2, err := p.Fetch(f2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(pg2.Data()[:6]) != "swapme" {
		t.Fatal("reopened file lost content")
	}
	pg2.Unpin()
	f2.Disk().Close()
}

func TestPoolCloseFileDropsOnlyThatFile(t *testing.T) {
	p := NewPool(8)
	dir := t.TempDir()
	fa, _ := p.OpenFile(filepath.Join(dir, "a.pages"))
	fb, _ := p.OpenFile(filepath.Join(dir, "b.pages"))
	pa, _ := p.NewPage(fa)
	pa.Data()[0] = 'a'
	pa.MarkDirty()
	pa.Unpin()
	pb, _ := p.NewPage(fb)
	pb.Data()[0] = 'b'
	pb.MarkDirty()
	pb.Unpin()
	if err := p.CloseFile(fa); err != nil {
		t.Fatal(err)
	}
	// b's cached page is untouched.
	p.ResetStats()
	got, err := p.Fetch(fb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data()[0] != 'b' {
		t.Fatal("b content lost")
	}
	got.Unpin()
	if p.Stats().Reads() != 0 {
		t.Fatal("b's page was evicted by CloseFile(a)")
	}
	fb.Disk().Close()
}
