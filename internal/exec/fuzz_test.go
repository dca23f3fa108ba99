package exec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"testing"

	"mdxopt/internal/star"
)

// legacyKey appends the canonical byte form of key (lo, hi) — each
// dimension's code as a little-endian int32, the exact layout the
// oracle sorts on. The engine never materializes it; it is the
// reference the packed key's order is checked against.
func (kp *keyPacker) legacyKey(dst []byte, lo, hi uint64) []byte {
	codes := make([]int32, len(kp.shifts))
	kp.unpack(lo, hi, codes)
	for _, c := range codes {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(c))
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

// FuzzPackedSortOrder checks the packed key's order against the
// canonical one: for any two keys of any packer over 4 to 8 dimensions,
// one word or two, comparing them as 128-bit integers (hi, lo) — the
// order finalization sorts, bounds and merges by — must agree with
// bytes.Compare on the legacy byte keys.
func FuzzPackedSortOrder(f *testing.F) {
	// Seeds are code vectors, packed here: one byte per dim; codes
	// differing only in the high byte of a two-byte field (where byte
	// order and numeric order disagree); cards straddling 256 and
	// 65,536; three 17-bit dims = 9 byte-rounded bytes in 51 bits and
	// six 10-bit dims = 12 in 60, one-word keys wider than a byte-rounded
	// word; ALL-level dims; and two two-word keys, one with a field
	// across bit 64 and several fields in the high word.
	add := func(nd uint8, cards []uint32, x, y []uint32) {
		w := cardWords(cards...)
		cs := fuzzCards(nd, w[0], w[1], w[2], w[3])
		kp, ok := newKeyPackerFromCards(cs)
		if !ok {
			f.Fatalf("seed cards %v do not pack", cs)
		}
		xc, yc := make([]int32, len(cs)), make([]int32, len(cs))
		for i := range cs {
			xc[i], yc[i] = int32(x[i]), int32(y[i])
		}
		xlo, xhi := kp.pack(xc)
		ylo, yhi := kp.pack(yc)
		f.Add(nd, w[0], w[1], w[2], w[3], xlo, xhi, ylo, yhi)
	}
	add(0, []uint32{12, 30, 200, 2}, []uint32{4, 18, 1, 0}, []uint32{4, 17, 3, 1})
	add(0, []uint32{1000, 1000, 1, 1}, []uint32{7, 0x100, 0, 0}, []uint32{7, 0xff, 0, 0})
	add(0, []uint32{255, 256, 65535, 65536}, []uint32{254, 255, 0xff00, 0xffff}, []uint32{254, 255, 0x00ff, 0xff00})
	add(0, []uint32{65537, 65537, 65537, 1}, []uint32{0x10000, 1, 2, 0}, []uint32{0x0ffff, 1, 2, 0})
	add(0, []uint32{1, 1, 1, 1}, []uint32{0, 0, 0, 0}, []uint32{0, 0, 0, 0})
	add(1, []uint32{1 << 20, 1 << 20, 1 << 20, 300, 5000}, []uint32{0x12345, 9, 0x10000, 299, 0x1234}, []uint32{0x12345, 9, 0x10000, 44, 0x1235})
	add(4, []uint32{1 << 16, 1 << 16, 1 << 16, 1 << 16, 257, 3, 1 << 12, 2}, []uint32{1, 2, 3, 4, 256, 2, 0x100, 1}, []uint32{1, 2, 3, 4, 256, 2, 0x0ff, 1})
	add(2, []uint32{1000, 1000, 1000, 1000, 1000, 1000}, []uint32{1, 2, 3, 4, 5, 0x200}, []uint32{1, 2, 3, 4, 5, 0x1ff})
	f.Fuzz(func(t *testing.T, nd uint8, w0, w1, w2, w3, xlo, xhi, ylo, yhi uint64) {
		cards := fuzzCards(nd, w0, w1, w2, w3)
		kp, ok := newKeyPackerFromCards(cards)
		if !ok {
			return
		}
		if kp.twoWords() != (fuzzKeyBits(cards) > 64) {
			t.Fatalf("cards %v (%d bits): twoWords = %v", cards, fuzzKeyBits(cards), kp.twoWords())
		}
		// Any bit pattern under the field masks is a legal key: a
		// field's values are a permutation of its width's codes.
		var allLo, allHi uint64
		for i, m := range kp.masks {
			allLo, allHi = kp.put(allLo, allHi, i, uint32(m))
		}
		x := foldRow{hi: xhi & allHi, lo: xlo & allLo}
		y := foldRow{hi: yhi & allHi, lo: ylo & allLo}
		want := bytes.Compare(kp.legacyKey(nil, x.lo, x.hi), kp.legacyKey(nil, y.lo, y.hi))
		if got := compareRows(&x, &y); got != want {
			t.Fatalf("cards %v keys %#x:%#x %#x:%#x: packed order %d, bytes.Compare = %d", cards, x.hi, x.lo, y.hi, y.lo, got, want)
		}
	})
}

// FuzzPackedKeyRoundTrip checks the packed-key codec against arbitrary
// cardinalities of 4 to 8 dimensions and arbitrary codes: a packer must
// exist exactly when the field widths fit two words, the key must be
// the 128-bit sum of the codes' field values (fieldValue) at fields laid
// out from dimension 0 down, from the key's top bit, and pack → unpack
// and pack → legacyKey must both reproduce the codes.
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
		top := total
		for i := range codes {
			w := star.FieldBits(cards[i])
			if top -= w; kp.shifts[i] != uint(top) {
				t.Fatalf("cards %v: dim %d field at bit %d, want %d", cards, i, kp.shifts[i], top)
			}
			codes[i] = int32(uint32(kw[i/2]>>(32*(i%2))) % uint32(cards[i]))
			v := fieldValue(uint32(codes[i]), w)
			if v>>w != 0 || fieldCode(v, w) != uint32(codes[i]) {
				t.Fatalf("cards %v: code %d in %d bits has field value %#x, decoded %d", cards, codes[i], w, v, fieldCode(v, w))
			}
			sum.Or(sum, new(big.Int).Lsh(big.NewInt(int64(v)), kp.shifts[i]))
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
