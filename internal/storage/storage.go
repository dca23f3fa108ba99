// Package storage implements the paged storage substrate the rest of the
// system is built on: fixed-size pages stored in ordinary files, a pinned
// buffer pool with clock eviction, and detailed I/O accounting that
// distinguishes sequential from random page reads.
//
// The accounting exists because the paper's experiments were run with cold
// caches on 1998 hardware where I/O dominated; on modern machines the only
// faithful way to preserve the paper's cost structure is to count the I/O
// and CPU work explicitly (see internal/cost, which converts these counts
// into simulated 1998-seconds).
package storage

import (
	"errors"
	"fmt"
)

// PageSize is the size in bytes of every page managed by this package.
const PageSize = 8192

// Common errors returned by the storage layer.
var (
	ErrPageOutOfRange = errors.New("storage: page number out of range")
	ErrPoolFull       = errors.New("storage: buffer pool full (all frames pinned)")
	ErrClosed         = errors.New("storage: file closed")
)

// FileID identifies a file registered with a Pool.
type FileID uint32

// PageKey names one page of one registered file.
type PageKey struct {
	File FileID
	Page uint32
}

func (k PageKey) String() string {
	return fmt.Sprintf("file%d:page%d", k.File, k.Page)
}

// Stats accumulates I/O counts observed by a Pool. A page read is counted
// as sequential when it is the page immediately following the previous
// read of the same file (or the first read of that file); every other
// read is random. Hits are fetches satisfied by the pool without touching
// the file.
type Stats struct {
	SeqReads   int64 // page reads that continued a sequential pass
	RandReads  int64 // page reads that required a seek
	Writes     int64 // page writes
	Hits       int64 // fetches satisfied from the pool
	Allocs     int64 // new pages allocated
	Evictions  int64 // frames recycled to make room
	FlushedAll int64 // times the pool was emptied (cold-cache resets)
}

// Reads returns the total number of physical page reads.
func (s Stats) Reads() int64 { return s.SeqReads + s.RandReads }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.SeqReads += other.SeqReads
	s.RandReads += other.RandReads
	s.Writes += other.Writes
	s.Hits += other.Hits
	s.Allocs += other.Allocs
	s.Evictions += other.Evictions
	s.FlushedAll += other.FlushedAll
}

// Sub returns s minus other, useful for measuring a window of activity.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		SeqReads:   s.SeqReads - other.SeqReads,
		RandReads:  s.RandReads - other.RandReads,
		Writes:     s.Writes - other.Writes,
		Hits:       s.Hits - other.Hits,
		Allocs:     s.Allocs - other.Allocs,
		Evictions:  s.Evictions - other.Evictions,
		FlushedAll: s.FlushedAll - other.FlushedAll,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("seq=%d rand=%d writes=%d hits=%d allocs=%d evict=%d",
		s.SeqReads, s.RandReads, s.Writes, s.Hits, s.Allocs, s.Evictions)
}
