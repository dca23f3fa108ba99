package exec

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
)

// legacyKey appends the canonical byte-key form of packed key k — each
// dimension's code as a little-endian int32, the exact layout the
// byte-key fold path builds and the oracle sorts on. The engine no
// longer materializes it; it is the reference the packed sort order is
// checked against.
func (kp *keyPacker) legacyKey(dst []byte, k uint64) []byte {
	for i := range kp.shifts {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(k>>kp.shifts[i]&kp.masks[i]))
	}
	return dst
}

// fuzzCards maps four fuzzed words to legal cardinalities.
func fuzzCards(c0, c1, c2, c3 uint32) []int32 {
	return []int32{
		int32(c0%(1<<30)) + 1,
		int32(c1%(1<<30)) + 1,
		int32(c2%(1<<30)) + 1,
		int32(c3%(1<<30)) + 1,
	}
}

// FuzzPackedSortOrder checks the finalizer's ordering against the
// canonical one: for any two keys of any packer, comparing sort keys
// (or, when the packer has none, compareKeys) must agree with
// bytes.Compare on the legacy byte keys, and a sort key must exist
// exactly when the significant code bytes fit a word.
func FuzzPackedSortOrder(f *testing.F) {
	// One byte per dim; codes differing only in the high byte of a
	// two-byte field (where byte order and numeric order disagree);
	// cards straddling 256 and 65,536; three 17-bit dims = 9 sort bytes
	// in 51 packed bits (fallback comparator); ALL-level dims.
	f.Add(uint32(12), uint32(30), uint32(200), uint32(2), uint64(0x1234), uint64(0x4321))
	f.Add(uint32(1000), uint32(1000), uint32(1), uint32(1), uint64(0x0100), uint64(0x00ff))
	f.Add(uint32(255), uint32(256), uint32(65535), uint32(65536), uint64(0xffffffffffff), uint64(0xff00ff00ff00))
	f.Add(uint32(65537), uint32(65537), uint32(65537), uint32(1), uint64(0x10000), uint64(0x0ffff))
	f.Add(uint32(1), uint32(1), uint32(1), uint32(1), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, c0, c1, c2, c3 uint32, x, y uint64) {
		cards := fuzzCards(c0, c1, c2, c3)
		kp, ok := newKeyPackerFromCards(cards)
		if !ok {
			return
		}
		sortBytes := 0
		for _, c := range cards {
			sortBytes += (bits.Len32(uint32(c)-1) + 7) / 8
		}
		if has := kp.sortSteps != nil; has != (sortBytes <= 8) {
			t.Fatalf("cards %v (%d sort bytes): has sort key = %v", cards, sortBytes, has)
		}
		// Any bit pattern under the field masks is a legal packed key.
		var all uint64
		for i, m := range kp.masks {
			all |= m << kp.shifts[i]
		}
		x, y = x&all, y&all
		want := bytes.Compare(kp.legacyKey(nil, x), kp.legacyKey(nil, y))
		if got := kp.compareKeys(x, y); got != want {
			t.Fatalf("cards %v keys %#x %#x: compareKeys = %d, bytes.Compare = %d", cards, x, y, got, want)
		}
		if kp.sortSteps != nil {
			if got := cmp.Compare(kp.sortKey(x), kp.sortKey(y)); got != want {
				t.Fatalf("cards %v keys %#x %#x: sort keys %#x %#x compare %d, bytes.Compare = %d",
					cards, x, y, kp.sortKey(x), kp.sortKey(y), got, want)
			}
		}
	})
}

// FuzzPackedKeyRoundTrip checks the packed-key codec against arbitrary
// per-dimension cardinalities and codes: construction must succeed
// exactly when the field widths fit 64 bits, and pack → unpack and
// pack → legacyKey must both reproduce the codes.
func FuzzPackedKeyRoundTrip(f *testing.F) {
	// Paper-shaped small cards; max-cardinality codes at 16-bit fields;
	// degenerate ALL-level dims; and a fallback-width key (>64 bits).
	f.Add(uint32(12), uint32(30), uint32(1000), uint32(2), uint32(11), uint32(29), uint32(999), uint32(1))
	f.Add(uint32(65536), uint32(65536), uint32(65536), uint32(65536), uint32(65535), uint32(65535), uint32(65535), uint32(65535))
	f.Add(uint32(1), uint32(1), uint32(1), uint32(1), uint32(0), uint32(0), uint32(0), uint32(0))
	f.Add(uint32(1<<30), uint32(1<<30), uint32(16), uint32(1), uint32(7), uint32(8), uint32(9), uint32(0))
	f.Fuzz(func(t *testing.T, c0, c1, c2, c3, k0, k1, k2, k3 uint32) {
		cards := fuzzCards(c0, c1, c2, c3)
		total := 0
		for _, c := range cards {
			total += bits.Len32(uint32(c) - 1)
		}
		kp, ok := newKeyPackerFromCards(cards)
		if want := total <= 64; ok != want {
			t.Fatalf("cards %v (%d bits): packer ok=%v, want %v", cards, total, ok, want)
		}
		if !ok {
			return
		}
		codes := []int32{
			int32(k0 % uint32(cards[0])),
			int32(k1 % uint32(cards[1])),
			int32(k2 % uint32(cards[2])),
			int32(k3 % uint32(cards[3])),
		}
		k := kp.pack(codes)
		out := make([]int32, len(codes))
		kp.unpack(k, out)
		for i := range codes {
			if out[i] != codes[i] {
				t.Fatalf("cards %v codes %v: unpack dim %d = %d", cards, codes, i, out[i])
			}
		}
		lk := kp.legacyKey(nil, k)
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

// FuzzSpillRecCodec round-trips the spill record codec over arbitrary
// keys and accumulator states (including NaN/Inf components, compared
// by bit pattern).
func FuzzSpillRecCodec(f *testing.F) {
	packed := make([]byte, 8)
	binary.LittleEndian.PutUint64(packed, 0xfeedfacecafebeef)
	f.Add(packed, 1.5, 2.5, true, 0)
	wide := bytes.Repeat([]byte{0xff, 0x00, 0xab, 0x7f}, 5) // 20-byte fallback-width key
	f.Add(wide, math.Inf(1), math.NaN(), false, 3)
	f.Fuzz(func(t *testing.T, key []byte, a, b float64, set bool, pad int) {
		if len(key) == 0 || len(key) > 256 {
			return
		}
		if pad < 0 || pad > 64 {
			pad = 0
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
