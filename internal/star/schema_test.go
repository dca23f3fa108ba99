package star

import (
	"fmt"
	"strings"
	"testing"
)

// wideDims returns n dimensions of one level with card members each.
func wideDims(t *testing.T, n, card int) []*Dimension {
	t.Helper()
	dims := make([]*Dimension, n)
	for i := range dims {
		d, err := UniformDimension(fmt.Sprintf("W%d", i), []int{card})
		if err != nil {
			t.Fatal(err)
		}
		dims[i] = d
	}
	return dims
}

// TestSchemaKeyBound: a group-by key packs into at most two words, so
// NewSchema accepts a schema whose base-level key takes exactly 128 bits
// and rejects one that needs more, naming the bit count.
func TestSchemaKeyBound(t *testing.T) {
	s, err := NewSchema(wideDims(t, 8, 1<<16), "m") // 8 × 16 bits
	if err != nil {
		t.Fatalf("128-bit schema rejected: %v", err)
	}
	if b := s.PackedGroupBits(make([]int, 8)); b != MaxKeyBits {
		t.Fatalf("base-level key of the 128-bit schema packs into %d bits", b)
	}
	_, err = NewSchema(wideDims(t, 9, 1<<15), "m") // 9 × 15 bits
	if err == nil || !strings.Contains(err.Error(), "135 bits") {
		t.Fatalf("135-bit schema: err %v, want one naming 135 bits", err)
	}
}
