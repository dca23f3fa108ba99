package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsetSetGet(t *testing.T) {
	b := New(130)
	for _, i := range []int64{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
}

func TestBitsetNextSet(t *testing.T) {
	b := New(200)
	b.Set(3)
	b.Set(64)
	b.Set(199)
	cases := []struct{ from, want int64 }{
		{0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 199}, {199, 199}, {-5, 3},
	}
	for _, c := range cases {
		if got := b.NextSet(c.from); got != c.want {
			t.Fatalf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := b.NextSet(200); got != -1 {
		t.Fatalf("NextSet(200) = %d, want -1", got)
	}
	empty := New(100)
	if got := empty.NextSet(0); got != -1 {
		t.Fatalf("NextSet on empty = %d, want -1", got)
	}
}

func randomBitset(rng *rand.Rand, n int64) *Bitset {
	b := New(n)
	for i := int64(0); i < n; i++ {
		if rng.Intn(2) == 0 {
			b.Set(i)
		}
	}
	return b
}

func TestBitsetAlgebraLaws(t *testing.T) {
	// Property: De Morgan-ish identities over random bitsets.
	rng := rand.New(rand.NewSource(42))
	const n = 300
	for trial := 0; trial < 50; trial++ {
		a := randomBitset(rng, n)
		b := randomBitset(rng, n)

		// Commutativity of Or.
		ab := a.Clone()
		ab.Or(b)
		ba := b.Clone()
		ba.Or(a)
		if !ab.Equal(ba) {
			t.Fatal("Or is not commutative")
		}

		// Commutativity of And.
		x := a.Clone()
		x.And(b)
		y := b.Clone()
		y.And(a)
		if !x.Equal(y) {
			t.Fatal("And is not commutative")
		}

		// Count identity |a| = |a∩b| + |a\b|.
		var anb int64
		a.ForEach(func(i int64) {
			if !b.Get(i) {
				anb++
			}
		})
		if x.Count()+anb != a.Count() {
			t.Fatal("count identity |a| = |a∩b| + |a\\b| violated")
		}

		// Absorption: a ∪ (a ∩ b) == a.
		abs := a.Clone()
		abs.Or(x)
		if !abs.Equal(a) {
			t.Fatal("absorption law violated")
		}

		// Idempotence.
		ii := a.Clone()
		ii.Or(a)
		if !ii.Equal(a) {
			t.Fatal("Or not idempotent")
		}
	}
}

func TestBitsetUnionCountQuick(t *testing.T) {
	// |a ∪ b| + |a ∩ b| = |a| + |b|
	f := func(seedA, seedB int64) bool {
		const n = 257
		a := randomBitset(rand.New(rand.NewSource(seedA)), n)
		b := randomBitset(rand.New(rand.NewSource(seedB)), n)
		u := a.Clone()
		u.Or(b)
		i := a.Clone()
		i.And(b)
		return u.Count()+i.Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetIntoVariantsMatchInPlace(t *testing.T) {
	// OrInto/CopyFrom are the destination-argument forms of Or/Clone:
	// same bits, same word counts charged.
	rng := rand.New(rand.NewSource(99))
	const n = 300
	for trial := 0; trial < 30; trial++ {
		a := randomBitset(rng, n)
		b := randomBitset(rng, n)

		or := a.Clone()
		wantWords := or.Or(b)
		dst := New(n)
		dst.CopyFrom(a)
		if gotWords := b.OrInto(dst); gotWords != wantWords {
			t.Fatalf("OrInto charged %d words, Or charged %d", gotWords, wantWords)
		}
		if !dst.Equal(or) {
			t.Fatal("CopyFrom+OrInto differs from Clone+Or")
		}
	}
}

func TestBitsetForEachEdgeWords(t *testing.T) {
	// Word-boundary bits and a full final partial word: ForEach must
	// produce exactly the set bits, in ascending order, once.
	b := New(130)
	for _, i := range []int64{0, 63, 64, 127, 128, 129} {
		b.Set(i)
	}
	var got []int64
	b.ForEach(func(i int64) { got = append(got, i) })
	want := []int64{0, 63, 64, 127, 128, 129}
	if len(got) != len(want) {
		t.Fatalf("visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bit %d: got %d, want %d", i, got[i], want[i])
		}
	}
	New(0).ForEach(func(i int64) { t.Fatalf("zero-length bitset visited bit %d", i) })
}

func TestBitsetLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched lengths did not panic")
		}
	}()
	a := New(10)
	b := New(11)
	a.Or(b)
}

func TestBitsetCloneIsIndependent(t *testing.T) {
	a := New(64)
	a.Set(5)
	c := a.Clone()
	c.Set(6)
	if a.Get(6) {
		t.Fatal("Clone shares storage with original")
	}
	if !c.Get(5) {
		t.Fatal("Clone lost bit 5")
	}
}

func TestBitsetAnyAndWords(t *testing.T) {
	b := New(129)
	if b.Any() {
		t.Fatal("empty bitset Any = true")
	}
	b.Set(128)
	if !b.Any() {
		t.Fatal("Any = false after Set")
	}
	if len(b.Words()) != 3 {
		t.Fatalf("%d words, want 3", len(b.Words()))
	}
	if len(New(0).Words()) != 0 {
		t.Fatal("zero-length bitset has words")
	}
}
