package star

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"

	"mdxopt/internal/table"
)

// Schema is the dimensional schema of a star database: an ordered set of
// dimensions and one measure.
type Schema struct {
	Dims    []*Dimension
	Measure string
}

// NewSchema validates and builds a schema.
func NewSchema(dims []*Dimension, measure string) (*Schema, error) {
	if len(dims) == 0 {
		return nil, errors.New("star: schema needs at least one dimension")
	}
	if measure == "" {
		return nil, errors.New("star: schema needs a measure name")
	}
	seen := map[string]bool{}
	for _, d := range dims {
		if seen[d.Name] {
			return nil, fmt.Errorf("star: duplicate dimension %q", d.Name)
		}
		seen[d.Name] = true
	}
	s := &Schema{Dims: dims, Measure: measure}
	if b := s.widestKeyBits(); b > MaxKeyBits {
		return nil, fmt.Errorf("star: the widest group-by key needs %d bits, more than the %d a key may have", b, MaxKeyBits)
	}
	return s, nil
}

// MaxKeyBits bounds a packed group-by key: two 64-bit words, the most
// the execution layer's fold table holds. NewSchema rejects a schema
// with a wider group-by.
const MaxKeyBits = 128

// FieldBits is the width of a packed key's field for a level of card
// members: the bits to hold code card-1 (0 for a single member).
func FieldBits(card int32) int { return bits.Len32(uint32(card) - 1) }

// widestKeyBits is the packed width of the schema's widest group-by:
// per dimension its widest level's field — the base level's in any
// hierarchy whose coarser levels have fewer members.
func (s *Schema) widestKeyBits() int {
	total := 0
	for _, d := range s.Dims {
		w := 0
		for l := range d.Levels {
			w = max(w, FieldBits(d.Card(l)))
		}
		total += w
	}
	return total
}

// NumDims returns the number of dimensions.
func (s *Schema) NumDims() int { return len(s.Dims) }

// DimIndex returns the position of the named dimension, or -1.
func (s *Schema) DimIndex(name string) int {
	for i, d := range s.Dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// ValidLevels reports whether levels is a valid group-by vector: one
// entry per dimension, each within [0, AllLevel].
func (s *Schema) ValidLevels(levels []int) error {
	if len(levels) != len(s.Dims) {
		return fmt.Errorf("star: group-by has %d levels, schema has %d dimensions", len(levels), len(s.Dims))
	}
	for i, l := range levels {
		if l < 0 || l > s.Dims[i].AllLevel() {
			return fmt.Errorf("star: dimension %s level %d out of range [0,%d]",
				s.Dims[i].Name, l, s.Dims[i].AllLevel())
		}
	}
	return nil
}

// GroupByName renders a level vector with the paper's notation, e.g.
// levels (1,2,2,0) over dimensions A,B,C,D is "A'B”C”D". Dimensions
// aggregated out appear as "(A:ALL)".
func (s *Schema) GroupByName(levels []int) string {
	var b strings.Builder
	for i, l := range levels {
		d := s.Dims[i]
		if l == d.AllLevel() {
			fmt.Fprintf(&b, "(%s:ALL)", d.Name)
		} else {
			b.WriteString(d.LevelName(l))
		}
	}
	return b.String()
}

// LevelCards returns the member-code cardinality of each dimension at
// the given group-by levels (1 for the virtual ALL level). The
// execution layer's packed group keys and the planner's memory model
// both size their per-dimension bit fields from these cards.
func (s *Schema) LevelCards(levels []int) []int32 {
	cards := make([]int32, len(s.Dims))
	for i, d := range s.Dims {
		cards[i] = d.Card(levels[i])
	}
	return cards
}

// PackedGroupBits returns the total bits needed to pack a group-by key
// at the given levels: one FieldBits field per dimension. A dimension
// with a single member (the ALL level) contributes 0 bits. The key
// takes one word when the result is at most 64, two otherwise.
func (s *Schema) PackedGroupBits(levels []int) int {
	total := 0
	for i, d := range s.Dims {
		total += FieldBits(d.Card(levels[i]))
	}
	return total
}

// ViewSchema returns the heap-file schema for a view of this star schema:
// one int32 key column per dimension (named after the dimension) plus the
// measure.
func (s *Schema) ViewSchema() table.Schema {
	keys := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		keys[i] = d.Name
	}
	return table.NewSchema(keys, []string{s.Measure})
}

// DimTableSchema returns the heap-file schema of a dimension table: one
// int32 column per level, base first.
func (s *Schema) DimTableSchema(dim int) table.Schema {
	d := s.Dims[dim]
	keys := make([]string, d.NumLevels())
	for l := range keys {
		keys[l] = d.LevelName(l)
	}
	return table.NewSchema(keys, nil)
}

// RowWidthBytes returns the width of one view tuple; the paper's tuples
// are 20 bytes (four 4-byte dimension codes + one measure).
func (s *Schema) RowWidthBytes() int { return s.ViewSchema().TupleSize() }
