package exec

import (
	"math/bits"

	"mdxopt/internal/star"
)

// Packed group keys.
//
// A query's group-by key is one member code per dimension, each dense
// in [0, card) at the query's level — the catalog knows every level's
// cardinality, so the whole key packs into contiguous bit fields of a
// single uint64 whenever the widths sum to at most 64 (the paper's
// 4-dimension schema needs well under 16 bits per dimension). The
// packed form replaces the 4·nd-byte string key of the byte-key
// aggregation map: hashing is one multiply instead of a string hash,
// and equality is one word compare. Only queries whose widths exceed 64
// bits take the byte-key path (keyPacker construction fails).
//
// The byte layout of the byte-key form — little-endian int32 per
// dimension — remains the canonical result ordering. Finalization never
// materializes it: sortKey permutes a packed key's bytes into a uint64
// whose numeric order equals that byte order, so sorted output is
// byte-identical whichever representation folded the tuples.

// keyPacker packs and unpacks a query's group-by key. Immutable after
// construction; safe to share across worker pipelines.
type keyPacker struct {
	shifts []uint // bit offset of each dimension's field
	masks  []uint64
	bits   int
	// sortSteps moves the packed key's significant code bytes into
	// sort-key position (see sortKey); nil when they exceed 64 bits and
	// ordering falls back to compareKeys.
	sortSteps []sortStep
}

// sortStep copies one code byte: the packed key's bits [src, src+8)
// under mask land at bit dst of the sort key.
type sortStep struct {
	src, dst uint
	mask     uint64
}

// newKeyPacker builds a packer for a group-by at the given levels, or
// reports false when the key does not fit in 64 bits.
func newKeyPacker(s *star.Schema, levels []int) (*keyPacker, bool) {
	return newKeyPackerFromCards(s.LevelCards(levels))
}

// newKeyPackerFromCards builds a packer from per-dimension code
// cardinalities (field width = bits to hold card-1).
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
		w := bits.Len32(uint32(card) - 1)
		kp.shifts[i] = uint(shift)
		kp.masks[i] = 1<<w - 1
		shift += w
	}
	if shift > 64 {
		return nil, false
	}
	kp.bits = shift
	kp.sortSteps = kp.buildSortSteps()
	return kp, true
}

// buildSortSteps lays out the sort key: dimension by dimension, each
// code's significant bytes (those a field of its width can set) from
// least to most significant, concatenated big-endian. That is the
// canonical byte key with its always-zero bytes dropped, so comparing
// two sort keys as integers is bytes.Compare on the canonical keys. A
// field width is rounded up to whole bytes here, so the sort key can
// need more than the 64 bits the packed key fits in; nil then.
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

// sortKey returns the order-preserving sort key of packed key k; 0 for
// every key when the packer has no sort steps.
func (kp *keyPacker) sortKey(k uint64) uint64 {
	var sk uint64
	for _, st := range kp.sortSteps {
		sk |= k >> st.src & st.mask << st.dst
	}
	return sk
}

// compareKeys orders two packed keys canonically without a sort key:
// the first differing dimension decides, its codes compared as
// little-endian byte strings (byte-reversed integers).
func (kp *keyPacker) compareKeys(a, b uint64) int {
	for i, sh := range kp.shifts {
		ca, cb := uint32(a>>sh&kp.masks[i]), uint32(b>>sh&kp.masks[i])
		if ca != cb {
			if bits.ReverseBytes32(ca) < bits.ReverseBytes32(cb) {
				return -1
			}
			return 1
		}
	}
	return 0
}

// pack encodes one code per dimension into the packed key. Codes must
// be within the cards the packer was built with.
func (kp *keyPacker) pack(codes []int32) uint64 {
	var k uint64
	for i, c := range codes {
		k |= uint64(uint32(c)) & kp.masks[i] << kp.shifts[i]
	}
	return k
}

// unpack decodes the packed key into out, one code per dimension.
func (kp *keyPacker) unpack(k uint64, out []int32) {
	for i := range out {
		out[i] = int32(k >> kp.shifts[i] & kp.masks[i])
	}
}

// hash64 is a wyhash-style single multiply-fold of the packed key; it
// drives both the fold table's probe sequence and, via the same value,
// the spill partition routing (see writePackedRec).
func hash64(x uint64) uint64 {
	hi, lo := bits.Mul64(x^0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9)
	return hi ^ lo
}
