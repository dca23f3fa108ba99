package exec

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/big"
	"testing"

	"mdxopt/internal/star"
)

// legacyKey appends the canonical byte form of key (lo, hi) — each
// dimension's code as a little-endian int32, the exact layout the
// oracle sorts on. The engine never materializes it; it is the
// reference the packed sort order is checked against.
func (kp *keyPacker) legacyKey(dst []byte, lo, hi uint64) []byte {
	for i := range kp.shifts {
		dst = binary.LittleEndian.AppendUint32(dst, kp.code(lo, hi, i))
	}
	return dst
}

// fuzzCards maps fuzzed words to 4 + nd%5 legal cardinalities, two per
// word.
func fuzzCards(nd uint8, words ...uint64) []int32 {
	cards := make([]int32, 4+int(nd)%5)
	for i := range cards {
		cards[i] = int32(uint32(words[i/2]>>(32*(i%2)))%(1<<30)) + 1
	}
	return cards
}

// fuzzKeyBits is the packed width of cards.
func fuzzKeyBits(cards []int32) int {
	total := 0
	for _, c := range cards {
		total += star.FieldBits(c)
	}
	return total
}

// fuzzWords packs two values per fuzz word, as fuzzCards reads them.
func fuzzWords(vals ...uint32) (w [4]uint64) {
	for i, v := range vals {
		w[i/2] |= uint64(v) << (32 * (i % 2))
	}
	return w
}

// cardWords packs cards so that fuzzCards returns them.
func cardWords(cards ...uint32) [4]uint64 {
	vals := make([]uint32, len(cards))
	for i, c := range cards {
		vals[i] = c - 1
	}
	return fuzzWords(vals...)
}

// FuzzPackedSortOrder checks the finalizer's ordering against the
// canonical one: for any two keys of any packer over 4 to 8 dimensions,
// one word or two, comparing sort keys (or, when the packer has none,
// compareKeys) must agree with bytes.Compare on the legacy byte keys,
// and a sort key must exist exactly when the significant code bytes fit
// a word.
func FuzzPackedSortOrder(f *testing.F) {
	// One byte per dim; codes differing only in the high byte of a
	// two-byte field (where byte order and numeric order disagree);
	// cards straddling 256 and 65,536; three 17-bit dims = 9 sort bytes
	// in 51 packed bits (fallback comparator); ALL-level dims; and two
	// two-word keys, one with a field across bit 64 and several fields
	// in the high word.
	add := func(nd uint8, w [4]uint64, xlo, xhi, ylo, yhi uint64) {
		f.Add(nd, w[0], w[1], w[2], w[3], xlo, xhi, ylo, yhi)
	}
	add(0, cardWords(12, 30, 200, 2), 0x1234, 0, 0x4321, 0)
	add(0, cardWords(1000, 1000, 1, 1), 0x0100, 0, 0x00ff, 0)
	add(0, cardWords(255, 256, 65535, 65536), 0xffffffffffff, 0, 0xff00ff00ff00, 0)
	add(0, cardWords(65537, 65537, 65537, 1), 0x10000, 0, 0x0ffff, 0)
	add(0, cardWords(1, 1, 1, 1), 0, 0, 0, 0)
	add(1, cardWords(1<<20, 1<<20, 1<<20, 300, 5000), 0xfedcba9876543210, 0x1234, 0xfedcba9876543210, 0x1235)
	add(4, cardWords(1<<16, 1<<16, 1<<16, 1<<16, 257, 3, 1<<12, 2), 0, 0x10203, 0, 0x10103)
	f.Fuzz(func(t *testing.T, nd uint8, w0, w1, w2, w3, xlo, xhi, ylo, yhi uint64) {
		cards := fuzzCards(nd, w0, w1, w2, w3)
		kp, ok := newKeyPackerFromCards(cards)
		if !ok {
			return
		}
		if kp.twoWords() != (fuzzKeyBits(cards) > 64) {
			t.Fatalf("cards %v (%d bits): twoWords = %v", cards, fuzzKeyBits(cards), kp.twoWords())
		}
		sortBytes := 0
		for _, c := range cards {
			sortBytes += (star.FieldBits(c) + 7) / 8
		}
		if has := kp.sortSteps != nil; has != (sortBytes <= 8) {
			t.Fatalf("cards %v (%d sort bytes): has sort key = %v", cards, sortBytes, has)
		}
		// Any bit pattern under the field masks is a legal key.
		var allLo, allHi uint64
		for i, m := range kp.masks {
			allLo, allHi = kp.put(allLo, allHi, i, uint32(m))
		}
		xlo, xhi, ylo, yhi = xlo&allLo, xhi&allHi, ylo&allLo, yhi&allHi
		want := bytes.Compare(kp.legacyKey(nil, xlo, xhi), kp.legacyKey(nil, ylo, yhi))
		if got := kp.compareKeys(xlo, xhi, ylo, yhi); got != want {
			t.Fatalf("cards %v keys %#x:%#x %#x:%#x: compareKeys = %d, bytes.Compare = %d", cards, xhi, xlo, yhi, ylo, got, want)
		}
		if kp.sortSteps != nil {
			if got := cmp.Compare(kp.sortKey(xlo), kp.sortKey(ylo)); got != want {
				t.Fatalf("cards %v keys %#x %#x: sort keys %#x %#x compare %d, bytes.Compare = %d",
					cards, xlo, ylo, kp.sortKey(xlo), kp.sortKey(ylo), got, want)
			}
		}
	})
}

// FuzzPackedKeyRoundTrip checks the packed-key codec against arbitrary
// cardinalities of 4 to 8 dimensions and arbitrary codes: a packer must
// exist exactly when the field widths fit two words, the key must be
// the fields' 128-bit sum, and pack → unpack and pack → legacyKey must
// both reproduce the codes.
func FuzzPackedKeyRoundTrip(f *testing.F) {
	// Paper-shaped small cards; max-cardinality codes at 16-bit fields;
	// degenerate ALL-level dims; eight 16-bit fields (exactly 128 bits);
	// a key too wide to pack; a field across bit 64.
	add := func(nd uint8, c, k [4]uint64) { f.Add(nd, c[0], c[1], c[2], c[3], k[0], k[1], k[2], k[3]) }
	add(0, cardWords(12, 30, 1000, 2), fuzzWords(11, 29, 999, 1))
	add(0, cardWords(65536, 65536, 65536, 65536), fuzzWords(65535, 65535, 65535, 65535))
	add(0, cardWords(1, 1, 1, 1), fuzzWords(0, 0, 0, 0))
	add(4, cardWords(65536, 65536, 65536, 65536, 65536, 65536, 65536, 65536), fuzzWords(65535, 1, 65535, 2, 65535, 3, 65535, 4))
	add(4, cardWords(1<<30, 1<<30, 1<<30, 1<<30, 1<<30, 2, 2, 2), fuzzWords(7, 8, 9, 10, 11, 1, 0, 1))
	add(1, cardWords(1<<30, 1<<30, 16, 1<<20, 1000), fuzzWords(7, 8, 9, 1<<19, 999))
	f.Fuzz(func(t *testing.T, nd uint8, c0, c1, c2, c3, k0, k1, k2, k3 uint64) {
		cards := fuzzCards(nd, c0, c1, c2, c3)
		total := fuzzKeyBits(cards)
		kp, ok := newKeyPackerFromCards(cards)
		if want := total <= star.MaxKeyBits; ok != want {
			t.Fatalf("cards %v (%d bits): packer ok=%v, want %v", cards, total, ok, want)
		}
		if !ok {
			return
		}
		kw := [4]uint64{k0, k1, k2, k3}
		codes := make([]int32, len(cards))
		sum := new(big.Int)
		for i := range codes {
			codes[i] = int32(uint32(kw[i/2]>>(32*(i%2))) % uint32(cards[i]))
			sum.Or(sum, new(big.Int).Lsh(big.NewInt(int64(codes[i])), kp.shifts[i]))
		}
		lo, hi := kp.pack(codes)
		key := new(big.Int).Or(new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64), new(big.Int).SetUint64(lo))
		if key.Cmp(sum) != 0 {
			t.Fatalf("cards %v codes %v: key %#x:%#x, want %s", cards, codes, hi, lo, sum.Text(16))
		}
		out := make([]int32, len(codes))
		kp.unpack(lo, hi, out)
		for i := range codes {
			if out[i] != codes[i] {
				t.Fatalf("cards %v codes %v: unpack dim %d = %d", cards, codes, i, out[i])
			}
		}
		lk := kp.legacyKey(nil, lo, hi)
		if len(lk) != 4*len(codes) {
			t.Fatalf("legacy key length %d, want %d", len(lk), 4*len(codes))
		}
		for i := range codes {
			if got := int32(binary.LittleEndian.Uint32(lk[i*4:])); got != codes[i] {
				t.Fatalf("cards %v codes %v: legacy key dim %d = %d", cards, codes, i, got)
			}
		}
	})
}

// FuzzSpillRecCodec round-trips the spill record codec over the two key
// lengths a fold table writes — 8 bytes for a one-word key, 16 for a
// two-word one — and arbitrary accumulator states (including NaN/Inf
// components, compared by bit pattern).
func FuzzSpillRecCodec(f *testing.F) {
	f.Add(uint64(0xfeedfacecafebeef), uint64(0), false, 1.5, 2.5, true, 0)
	f.Add(uint64(0xff00ab7fff00ab7f), uint64(0x7fab00ff), true, math.Inf(1), math.NaN(), false, 3)
	f.Fuzz(func(t *testing.T, lo, hi uint64, wide bool, a, b float64, set bool, pad int) {
		if pad < 0 || pad > 64 {
			pad = 0
		}
		key := binary.LittleEndian.AppendUint64(nil, lo)
		if wide {
			key = binary.LittleEndian.AppendUint64(key, hi)
		}
		keyLen := len(key)
		buf := make([]byte, pad+keyLen+spillRecTail)
		in := accum{a: a, b: b, set: set}
		putRec(buf, pad, keyLen, key, in)
		gotKey, got := getRec(buf, pad, keyLen)
		if !bytes.Equal(gotKey, key) {
			t.Fatalf("key round-trip: got %x want %x", gotKey, key)
		}
		if math.Float64bits(got.a) != math.Float64bits(in.a) ||
			math.Float64bits(got.b) != math.Float64bits(in.b) ||
			got.set != in.set {
			t.Fatalf("accum round-trip: got %+v want %+v", got, in)
		}
	})
}
