package exec

import (
	"fmt"
	"math/bits"

	"mdxopt/internal/star"
)

// Packed group keys.
//
// A query's group-by key is one member code per dimension, each dense
// in [0, card) at the query's level — the catalog knows every level's
// cardinality, so the whole key packs into contiguous bit fields of a
// 128-bit integer held in two words, lo and hi (star.NewSchema bounds
// every group-by to star.MaxKeyBits). A key of at most 64 bits — every
// key of the paper's 4-dimension schema — has hi = 0 and folds through
// the one-word kernel: hashing is one multiply and equality one word
// compare. A wider key folds through the fold table's two-word entries.
//
// The canonical result ordering is the key's byte layout as one
// little-endian int32 per dimension (the oracle sorts exactly those
// bytes). The packed key is laid out so that its numeric order, (hi,
// lo) as one 128-bit integer, is that order: dimension 0's field takes
// the most significant bits, and each field stores its code with the
// bytes reversed (fieldValue), so a code's low byte sits on top. The
// key is its own sort key at every width, and its top bits are the
// canonical prefix.

// keyPacker packs and unpacks a query's group-by key. Immutable after
// construction; safe to share across worker pipelines.
type keyPacker struct {
	shifts []uint   // bit offset of each dimension's field; dimension 0's is the highest
	masks  []uint64 // each field's mask, 1<<width - 1
	bits   int
}

// newKeyPacker builds the packer of a group-by at the given levels.
// Every group-by of a schema packs: star.NewSchema rejects a schema
// whose widest key exceeds star.MaxKeyBits.
func newKeyPacker(s *star.Schema, levels []int) *keyPacker {
	kp, ok := newKeyPackerFromCards(s.LevelCards(levels))
	if !ok {
		panic(fmt.Sprintf("exec: group-by %v needs more than %d bits", levels, star.MaxKeyBits))
	}
	return kp
}

// newKeyPackerFromCards builds a packer from per-dimension code
// cardinalities (field width star.FieldBits), or reports false when
// the key does not fit in two words.
func newKeyPackerFromCards(cards []int32) (*keyPacker, bool) {
	kp := &keyPacker{
		shifts: make([]uint, len(cards)),
		masks:  make([]uint64, len(cards)),
	}
	for i, card := range cards {
		if card < 1 {
			return nil, false
		}
		w := star.FieldBits(card)
		kp.masks[i] = 1<<w - 1
		kp.bits += w
	}
	if kp.bits > star.MaxKeyBits {
		return nil, false
	}
	shift := kp.bits
	for i, m := range kp.masks {
		shift -= bits.Len64(m)
		kp.shifts[i] = uint(shift)
	}
	return kp, true
}

// twoWords reports whether the key needs the high word.
func (kp *keyPacker) twoWords() bool { return kp.bits > 64 }

// fieldValue is the value code c takes in a field of w bits: its bytes
// reversed, the low byte on top — (c&0xff)<<(w-8) followed by the same
// layout of c>>8 in the w-8 bits below — so that the fields' numeric
// order is the order of the codes' little-endian bytes. A field of at
// most 8 bits holds the code itself.
func fieldValue(c uint32, w int) uint32 {
	if w <= 8 {
		return c
	}
	n := (w + 7) / 8 // code bytes
	r := w - 8*(n-1) // bits of the top code byte, the field's lowest
	rev := bits.ReverseBytes32(c) >> (32 - 8*n)
	return rev>>8<<r | rev&0xff
}

// fieldCode inverts fieldValue: the code a field of w bits holds.
func fieldCode(v uint32, w int) uint32 {
	if w <= 8 {
		return v
	}
	n := (w + 7) / 8
	r := w - 8*(n-1)
	return bits.ReverseBytes32((v>>r<<8 | v&(1<<r-1)) << (32 - 8*n))
}

// fieldOf is the value code c takes in dimension i's field.
func (kp *keyPacker) fieldOf(i int, c int32) uint32 {
	return fieldValue(uint32(c), bits.Len64(kp.masks[i]))
}

// field extracts dimension i's field value from the key (lo, hi). Go
// shifts by 64 or more yield zero, so a field below bit 64, above it,
// or across it takes the same expression; the field of a one-word key
// never reaches hi, whose terms then vanish or fall outside the mask.
func (kp *keyPacker) field(lo, hi uint64, i int) uint32 {
	s := kp.shifts[i]
	return uint32((lo>>s | hi<<(64-s) | hi>>(s-64)) & kp.masks[i])
}

// put ORs field value v into dimension i's field of the key (lo, hi);
// the inverse of field.
func (kp *keyPacker) put(lo, hi uint64, i int, v uint32) (uint64, uint64) {
	f, s := uint64(v)&kp.masks[i], kp.shifts[i]
	return lo | f<<s, hi | f<<(s-64) | f>>(64-s)
}

// pack encodes one code per dimension into the key. Codes must be
// within the cards the packer was built with.
func (kp *keyPacker) pack(codes []int32) (lo, hi uint64) {
	for i, c := range codes {
		lo, hi = kp.put(lo, hi, i, kp.fieldOf(i, c))
	}
	return lo, hi
}

// unpack decodes the key into out, one code per dimension.
func (kp *keyPacker) unpack(lo, hi uint64, out []int32) {
	for i := range out {
		out[i] = int32(fieldCode(kp.field(lo, hi, i), bits.Len64(kp.masks[i])))
	}
}

// hash64 is a wyhash-style single multiply-fold of a one-word key; it
// drives both the fold table's probe sequence and, via the same value,
// the spill partition routing (see writeRec).
func hash64(x uint64) uint64 {
	hi, lo := bits.Mul64(x^0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9)
	return hi ^ lo
}

// hash128 is hash64 of a two-word key, the high word's hash folded into
// the low word; it plays hash64's two roles for a two-word table.
func hash128(lo, hi uint64) uint64 { return hash64(lo ^ hash64(hi)) }
