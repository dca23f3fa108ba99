package mdxopt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// tortureSrcs are the MDX expressions the torture readers race against
// maintenance. They hit different group-bys so plans span views the
// mutator is compacting and refreshing.
var tortureSrcs = []string{
	`{A''.A1.CHILDREN} on COLUMNS {B''.B1} on ROWS CONTEXT ABCD FILTER (D'.DD1)`,
	`{A''.A1, A''.A2} on COLUMNS {B''.B2, B''.B3} on ROWS CONTEXT ABCD FILTER (D'.DD1)`,
	`{A''.MEMBERS} on COLUMNS CONTEXT ABCD FILTER (D'.DD1)`,
}

// canonAnswer serializes an Answer's result values deterministically
// (rows sorted by member tuple) so two runs against the same snapshot
// epoch can be compared byte for byte.
func canonAnswer(ans *Answer) string {
	var b strings.Builder
	for _, qr := range ans.Queries {
		fmt.Fprintf(&b, "%s %s %s\n", qr.Name, qr.GroupBy, qr.Aggregate)
		rows := make([]string, len(qr.Rows))
		for i, r := range qr.Rows {
			rows[i] = strings.Join(r.Members, "|") + "=" + strconv.FormatFloat(r.Value, 'g', -1, 64)
		}
		sort.Strings(rows)
		for _, r := range rows {
			b.WriteString(r)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TestSnapshotTortureConcurrentMaintenance races query execution
// (requests run alone and requests merged at the admission queue's
// runner slots) against a mutator cycling loads, refreshes and compactions. Every answer must be
// byte-identical to a serial run against the published epoch the request
// pinned, at every worker width.
func TestSnapshotTortureConcurrentMaintenance(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tortureRun(t, workers)
		})
	}
}

func tortureRun(t *testing.T, workers int) {
	dir := filepath.Join(t.TempDir(), "db")
	if db, err := CreateSample(dir, 0.002); err != nil {
		t.Fatalf("CreateSample: %v", err)
	} else if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := OpenWith(dir, OpenOptions{Workers: workers})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}

	// refs maps snapshot epoch -> MDX source -> canonical serial answer.
	// The mutator records the reference for each epoch right after
	// publishing it (it is the only mutator, so the epoch is still
	// current); readers wait for their pinned epoch's entry to appear.
	var refMu sync.Mutex
	refs := map[uint64]map[string]string{}
	record := func() error {
		entry := map[string]string{}
		var epoch uint64
		for _, src := range tortureSrcs {
			ans, err := db.QueryWith(src, Options{})
			if err != nil {
				return err
			}
			if epoch != 0 && ans.Stats.SnapshotEpoch != epoch {
				return fmt.Errorf("reference run moved from epoch %d to %d mid-recording", epoch, ans.Stats.SnapshotEpoch)
			}
			epoch = ans.Stats.SnapshotEpoch
			entry[src] = canonAnswer(ans)
		}
		refMu.Lock()
		refs[epoch] = entry
		refMu.Unlock()
		return nil
	}
	lookupRef := func(epoch uint64, src string) (string, bool) {
		refMu.Lock()
		defer refMu.Unlock()
		e, ok := refs[epoch]
		if !ok {
			return "", false
		}
		ref, ok := e[src]
		return ref, ok
	}
	if err := record(); err != nil {
		t.Fatalf("initial reference: %v", err)
	}

	cards := make([]int32, len(db.Dimensions()))
	for i := range cards {
		cards[i] = db.db.Schema.Dims[i].Card(0)
	}
	views := db.Views()

	done := make(chan struct{})
	errCh := make(chan error, workers+1)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// Mutator: load facts, refresh, compact — recording the reference
	// answers for every epoch it publishes.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		codes := make([]int32, len(cards))
		for iter := 0; iter < 4; iter++ {
			ld := db.Load()
			for r := 0; r < 16; r++ {
				for i := range codes {
					codes[i] = int32(iter*16+r*7+i) % cards[i]
				}
				if err := ld.AddCodes(codes, float64(iter+1)); err != nil {
					fail(fmt.Errorf("AddCodes: %w", err))
					return
				}
			}
			if err := ld.Close(); err != nil {
				fail(fmt.Errorf("Loader.Close: %w", err))
				return
			}
			if err := record(); err != nil {
				fail(err)
				return
			}
			if err := db.Refresh(); err != nil {
				fail(fmt.Errorf("Refresh: %w", err))
				return
			}
			if err := record(); err != nil {
				fail(err)
				return
			}
			v := views[1+iter%(len(views)-1)]
			if err := db.Compact(v.Levels...); err != nil {
				fail(fmt.Errorf("Compact %s: %w", v.Name, err))
				return
			}
			if err := record(); err != nil {
				fail(err)
				return
			}
		}
	}()

	// Readers: alternate a per-reader width with default options, so
	// requests that queue merge with some readers and not others; check
	// each answer byte-for-byte against the serial reference at its epoch.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				src := tortureSrcs[(w+i)%len(tortureSrcs)]
				opts := Options{Workers: 1 + w%2}
				if i%2 == 1 {
					opts = Options{}
				}
				ans, err := db.QueryWith(src, opts)
				if err != nil {
					if errors.Is(err, ErrBusy) {
						continue
					}
					fail(fmt.Errorf("reader %d: %w", w, err))
					return
				}
				got := canonAnswer(ans)
				epoch := ans.Stats.SnapshotEpoch
				ref, ok := lookupRef(epoch, src)
				for deadline := time.Now().Add(10 * time.Second); !ok; ref, ok = lookupRef(epoch, src) {
					if time.Now().After(deadline) {
						fail(fmt.Errorf("reader %d: no reference recorded for epoch %d", w, epoch))
						return
					}
					time.Sleep(time.Millisecond)
				}
				if got != ref {
					fail(fmt.Errorf("reader %d: epoch %d answer diverges from serial reference\ngot:\n%s\nwant:\n%s", w, epoch, got, ref))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Close force-drains the reclaimer; no replaced file may survive it.
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	assertNoLeakedFiles(t, dir)
}

// assertNoLeakedFiles checks that every heap/index file in a closed
// database directory is referenced by the manifest — replaced files
// must all have been reclaimed by Close.
func assertNoLeakedFiles(t *testing.T, dir string) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	var meta struct {
		DimTables []string `json:"dim_tables"`
		Views     []struct {
			File    string            `json:"file"`
			Indexes map[string]string `json:"indexes"`
		} `json:"views"`
	}
	if err := json.Unmarshal(blob, &meta); err != nil {
		t.Fatalf("parse manifest: %v", err)
	}
	referenced := map[string]bool{}
	for _, f := range meta.DimTables {
		referenced[f] = true
	}
	for _, v := range meta.Views {
		referenced[v.File] = true
		for _, f := range v.Indexes {
			referenced[f] = true
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".heap") && !strings.HasSuffix(name, ".bmx") {
			continue
		}
		if !referenced[name] {
			t.Errorf("leaked file %s: on disk but not in the manifest", name)
		}
	}
}

// TestSnapshotReclamationPinBlocksUnlink proves a replaced view heap is
// unlinked only after the last pin protecting it is released, and that
// the pinned snapshot keeps reading the retired file correctly.
func TestSnapshotReclamationPinBlocksUnlink(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := CreateSample(dir, 0.002)
	if err != nil {
		t.Fatalf("CreateSample: %v", err)
	}
	defer db.Close()

	v := db.Views()[1]
	snap, unpin := db.db.Pin()
	sv := snap.ViewByName(v.Name)
	if sv == nil {
		t.Fatalf("snapshot lacks view %s", v.Name)
	}
	sumBefore := 0.0
	if err := sv.Heap.Scan(func(row int64, keys []int32, measures []float64) error {
		sumBefore += measures[0]
		return nil
	}); err != nil {
		t.Fatalf("pre-compact scan: %v", err)
	}

	before := listDataFiles(t, dir)
	if err := db.Compact(v.Levels...); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := listDataFiles(t, dir)
	for f := range before {
		if !after[f] {
			t.Fatalf("file %s deleted while epoch %d still pinned", f, snap.Epoch)
		}
	}
	if ms := db.MaintenanceStats(); ms.RetiredFiles == 0 {
		t.Fatalf("no retired files after Compact: %+v", ms)
	}

	// The pinned snapshot still reads the retired heap, byte-identically.
	sumAfter := 0.0
	if err := sv.Heap.Scan(func(row int64, keys []int32, measures []float64) error {
		sumAfter += measures[0]
		return nil
	}); err != nil {
		t.Fatalf("post-compact scan through pinned snapshot: %v", err)
	}
	if sumAfter != sumBefore {
		t.Fatalf("pinned snapshot scan changed: %v -> %v", sumBefore, sumAfter)
	}

	unpin()
	if ms := db.MaintenanceStats(); ms.RetiredFiles != 0 {
		t.Fatalf("retired files not reclaimed after unpin: %+v", ms)
	}
	final := listDataFiles(t, dir)
	removed := 0
	for f := range before {
		if !final[f] {
			removed++
		}
	}
	if removed == 0 {
		t.Fatal("no replaced file was unlinked after the last pin released")
	}
}

// TestSnapshotReclamationAfterCanceledBatch cancels a request
// mid-flight and checks its pin still drains, unblocking reclamation of
// files retired while it ran.
func TestSnapshotReclamationAfterCanceledBatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := CreateSample(dir, 0.002)
	if err != nil {
		t.Fatalf("CreateSample: %v", err)
	}
	defer db.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(ctx, tortureSrcs[0], Options{})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	<-errc // canceled or finished — either way the pin must drain

	deadline := time.Now().Add(5 * time.Second)
	for db.MaintenanceStats().Pins != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pins never drained after cancellation: %+v", db.MaintenanceStats())
		}
		time.Sleep(time.Millisecond)
	}
	v := db.Views()[1]
	if err := db.Compact(v.Levels...); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if ms := db.MaintenanceStats(); ms.RetiredFiles != 0 {
		t.Fatalf("retired files survived with no pins outstanding: %+v", ms)
	}
}

func listDataFiles(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".heap") || strings.HasSuffix(name, ".bmx") {
			out[name] = true
		}
	}
	return out
}
