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
// bytes). Finalization never materializes it: sortKey permutes a
// one-word key's bytes into a uint64 whose numeric order equals that
// byte order, and compareKeys orders the keys that have no sort key.

// keyPacker packs and unpacks a query's group-by key. Immutable after
// construction; safe to share across worker pipelines.
type keyPacker struct {
	shifts []uint // bit offset of each dimension's field in the 128-bit key
	masks  []uint64
	bits   int
	// sortSteps moves the packed key's significant code bytes into
	// sort-key position (see sortKey); nil when they exceed 64 bits and
	// ordering falls back to compareKeys. A two-word key never has one.
	sortSteps []sortStep
}

// sortStep copies one code byte: the packed key's bits [src, src+8)
// under mask land at bit dst of the sort key.
type sortStep struct {
	src, dst uint
	mask     uint64
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
	shift := 0
	for i, card := range cards {
		if card < 1 {
			return nil, false
		}
		w := star.FieldBits(card)
		kp.shifts[i] = uint(shift)
		kp.masks[i] = 1<<w - 1
		shift += w
	}
	if shift > star.MaxKeyBits {
		return nil, false
	}
	kp.bits = shift
	kp.sortSteps = kp.buildSortSteps()
	return kp, true
}

// twoWords reports whether the key needs the high word.
func (kp *keyPacker) twoWords() bool { return kp.bits > 64 }

// buildSortSteps lays out the sort key: dimension by dimension, each
// code's significant bytes (those a field of its width can set) from
// least to most significant, concatenated big-endian. That is the
// canonical byte key with its always-zero bytes dropped, so comparing
// two sort keys as integers is bytes.Compare on the canonical keys. A
// field width is rounded up to whole bytes here, so the sort key can
// need more than the 64 bits a one-word key fits in; nil then.
func (kp *keyPacker) buildSortSteps() []sortStep {
	nbytes := 0
	for _, m := range kp.masks {
		nbytes += (bits.Len64(m) + 7) / 8
	}
	if nbytes > 8 {
		return nil
	}
	steps := make([]sortStep, 0, nbytes)
	dst := uint(8 * nbytes)
	for i, m := range kp.masks {
		for off := uint(0); m>>off != 0; off += 8 {
			dst -= 8
			steps = append(steps, sortStep{src: kp.shifts[i] + off, dst: dst, mask: m >> off & 0xff})
		}
	}
	return steps
}

// sortKey returns the order-preserving sort key of one-word key k; 0
// for every key when the packer has no sort steps.
func (kp *keyPacker) sortKey(k uint64) uint64 {
	var sk uint64
	for _, st := range kp.sortSteps {
		sk |= k >> st.src & st.mask << st.dst
	}
	return sk
}

// compareKeys orders two keys canonically without a sort key: the
// first differing dimension decides, its codes compared as
// little-endian byte strings (byte-reversed integers).
func (kp *keyPacker) compareKeys(alo, ahi, blo, bhi uint64) int {
	for i := range kp.shifts {
		ca, cb := kp.code(alo, ahi, i), kp.code(blo, bhi, i)
		if ca != cb {
			if bits.ReverseBytes32(ca) < bits.ReverseBytes32(cb) {
				return -1
			}
			return 1
		}
	}
	return 0
}

// code extracts dimension i's code from the key (lo, hi). Go shifts by
// 64 or more yield zero, so a field below bit 64, above it, or across
// it takes the same expression; the field of a one-word key never
// reaches hi, whose terms then vanish or fall outside the mask.
func (kp *keyPacker) code(lo, hi uint64, i int) uint32 {
	s := kp.shifts[i]
	return uint32((lo>>s | hi<<(64-s) | hi>>(s-64)) & kp.masks[i])
}

// put ORs code c into dimension i's field of the key (lo, hi); the
// inverse of code.
func (kp *keyPacker) put(lo, hi uint64, i int, c uint32) (uint64, uint64) {
	v, s := uint64(c)&kp.masks[i], kp.shifts[i]
	return lo | v<<s, hi | v<<(s-64) | v>>(64-s)
}

// pack encodes one code per dimension into the key. Codes must be
// within the cards the packer was built with.
func (kp *keyPacker) pack(codes []int32) (lo, hi uint64) {
	for i, c := range codes {
		lo, hi = kp.put(lo, hi, i, uint32(c))
	}
	return lo, hi
}

// unpack decodes the key into out, one code per dimension.
func (kp *keyPacker) unpack(lo, hi uint64, out []int32) {
	for i := range out {
		out[i] = int32(kp.code(lo, hi, i))
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
