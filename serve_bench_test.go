package mdxopt

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdxopt/internal/workload"
)

// Serving benchmarks: 32 Q1–Q9 requests against a pool much smaller than
// the data, sent by 8 concurrent Poisson-paced clients (batched: the
// admission queue merges what arrives while its runner slots are busy
// into shared passes) versus one at a time by one client (solo: every
// request runs alone). Reported metrics: queries/s and the total
// attributed physical page reads per iteration.

const (
	serveClients          = 8
	serveQueriesPerClient = 4
	servePoolFrames       = 64
)

var (
	serveDBOnce sync.Once
	serveDB     *DB
	serveDBDir  string
	serveDBErr  error
)

// serveFixture builds the sample database once per benchmark binary and
// reopens it with a deliberately small buffer pool.
func serveFixture(b *testing.B) *DB {
	b.Helper()
	serveDBOnce.Do(func() {
		dir, err := os.MkdirTemp("", "mdxopt-serve-bench")
		if err != nil {
			serveDBErr = err
			return
		}
		serveDBDir = dir
		dbDir := filepath.Join(dir, "db")
		db, err := CreateSample(dbDir, benchScale())
		if err != nil {
			serveDBErr = err
			return
		}
		if err := db.Close(); err != nil {
			serveDBErr = err
			return
		}
		serveDB, serveDBErr = OpenWith(dbDir, OpenOptions{PoolFrames: servePoolFrames})
	})
	if serveDBErr != nil {
		b.Fatal(serveDBErr)
	}
	return serveDB
}

// serveWorkload deals a deterministic Poisson arrival sequence to the
// clients, or all of it to one client when solo; the same seed keeps
// both benchmarks on identical requests.
func serveWorkload(solo bool) [][]workload.Arrival {
	rng := rand.New(rand.NewSource(7))
	arrivals := workload.Arrivals(rng, serveClients*serveQueriesPerClient, 2000)
	if solo {
		return [][]workload.Arrival{arrivals}
	}
	return workload.PerClient(arrivals, serveClients)
}

// serveRun replays the workload with one goroutine per client and
// returns the attributed page reads across all answers. Concurrent
// clients pace each request by its arrival offset; a solo client sends
// back to back.
func serveRun(b *testing.B, db *DB, solo bool) int64 {
	b.Helper()
	perClient := serveWorkload(solo)
	start := time.Now()
	var pages atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, serveClients)
	for _, reqs := range perClient {
		wg.Add(1)
		go func(reqs []workload.Arrival) {
			defer wg.Done()
			for _, req := range reqs {
				if wait := req.At - time.Since(start); !solo && wait > 0 {
					time.Sleep(wait)
				}
				a, err := db.Query(req.Src)
				if err != nil {
					errs <- err
					return
				}
				pages.Add(a.Stats.PageReads)
			}
		}(reqs)
	}
	wg.Wait()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
	return pages.Load()
}

func serveBench(b *testing.B, solo bool) {
	db := serveFixture(b)
	queries := int64(serveClients * serveQueriesPerClient)
	var pages int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pages += serveRun(b, db, solo)
	}
	b.StopTimer()
	b.ReportMetric(float64(pages)/float64(b.N), "pages/run")
	b.ReportMetric(float64(queries)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

func BenchmarkServeBatched(b *testing.B) { serveBench(b, false) }
func BenchmarkServeSolo(b *testing.B)    { serveBench(b, true) }
