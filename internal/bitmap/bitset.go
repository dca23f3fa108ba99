// Package bitmap provides word-aligned bitsets and bitmap join indexes
// over heap-file row positions.
//
// The paper's index-based star join ORs per-value bitmaps from a join
// index along each dimension, ANDs the per-dimension results into a query
// result bitmap, and probes the fact table at the set positions (§3.2).
// The shared index star join ORs the *query* result bitmaps so the fact
// table is probed once for the whole query set.
package bitmap

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitset is a fixed-length set of bits indexed from 0. The zero value is
// unusable; use New.
//
// Length-mismatched binary operations panic: bitsets in this system are
// always allocated against the same table's row count, so a mismatch is a
// programming error, not an environmental condition.
type Bitset struct {
	n     int64
	words []uint64
}

// New returns an empty bitset able to hold n bits.
func New(n int64) *Bitset {
	if n < 0 {
		panic("bitmap: negative length")
	}
	return &Bitset{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewFull returns a bitset of n bits with every bit set.
func NewFull(n int64) *Bitset {
	b := New(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if extra := n % wordBits; extra != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] = (1 << uint(extra)) - 1
	}
	return b
}

// Len returns the bitset's capacity in bits.
func (b *Bitset) Len() int64 { return b.n }

// Words exposes the backing words (for serialization).
func (b *Bitset) Words() []uint64 { return b.words }

// Set sets bit i.
func (b *Bitset) Set(i int64) {
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set.
func (b *Bitset) Get(i int64) bool {
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (b *Bitset) check(o *Bitset) {
	if b.n != o.n {
		panic(fmt.Sprintf("bitmap: length mismatch %d vs %d", b.n, o.n))
	}
}

// Or sets b to b ∪ o and returns the number of words processed.
func (b *Bitset) Or(o *Bitset) int64 {
	b.check(o)
	for i, w := range o.words {
		b.words[i] |= w
	}
	return int64(len(b.words))
}

// And sets b to b ∩ o and returns the number of words processed.
func (b *Bitset) And(o *Bitset) int64 {
	b.check(o)
	for i, w := range o.words {
		b.words[i] &= w
	}
	return int64(len(b.words))
}

// OrInto sets dst to dst ∪ b and returns the number of words processed
// — the destination-argument variant of Or, so a union accumulated into
// a fresh bitset needs no clone of its first operand.
func (b *Bitset) OrInto(dst *Bitset) int64 {
	b.check(dst)
	for i, w := range b.words {
		dst.words[i] |= w
	}
	return int64(len(b.words))
}

// CopyFrom overwrites b's bits with o's. Unlike Clone it reuses b's
// backing words; like Clone it is not charged as bitmap work.
func (b *Bitset) CopyFrom(o *Bitset) {
	b.check(o)
	copy(b.words, o.words)
}

// Count returns the number of set bits.
func (b *Bitset) Count() int64 {
	var c int64
	for _, w := range b.words {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// Any reports whether any bit is set.
func (b *Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a copy of b.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{n: b.n, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// Equal reports whether b and o have the same length and bits.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// NextSet returns the index of the first set bit at or after from, or -1.
func (b *Bitset) NextSet(from int64) int64 {
	if from < 0 {
		from = 0
	}
	if from >= b.n {
		return -1
	}
	wi := from / wordBits
	w := b.words[wi] >> (uint(from) % wordBits)
	if w != 0 {
		i := from + int64(bits.TrailingZeros64(w))
		if i < b.n {
			return i
		}
		return -1
	}
	for wi++; wi < int64(len(b.words)); wi++ {
		if b.words[wi] != 0 {
			i := wi*wordBits + int64(bits.TrailingZeros64(b.words[wi]))
			if i < b.n {
				return i
			}
			return -1
		}
	}
	return -1
}

// ForEach calls fn with each set bit index in ascending order.
func (b *Bitset) ForEach(fn func(i int64)) {
	for wi, w := range b.words {
		base := int64(wi) * wordBits
		for w != 0 {
			t := int64(bits.TrailingZeros64(w))
			i := base + t
			if i >= b.n {
				return
			}
			fn(i)
			w &= w - 1
		}
	}
}

func (b *Bitset) String() string {
	return fmt.Sprintf("Bitset{len=%d set=%d}", b.n, b.Count())
}
