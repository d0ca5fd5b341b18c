// Package bitmap provides the fixed-length bit vectors HTPGM uses to index
// which sequences of the temporal sequence database contain an event or
// support a pattern (paper §IV-C, "Efficient bitmap indexing").
//
// A Bitmap has a fixed logical length (the number of sequences in DSEQ);
// support counting is a population count, and the joint occurrences of an
// event group are the AND of the members' bitmaps (Alg 1, line 8).
package bitmap

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitmap is a fixed-length bit vector. The zero value is an empty bitmap of
// length 0; use New to create one of a given length.
type Bitmap struct {
	words []uint64
	n     int // logical length in bits
}

// New returns a bitmap of n bits, all zero.
func New(n int) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative length %d", n))
	}
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a bitmap of length n with the given bits set.
func FromIndices(n int, idx ...int) *Bitmap {
	b := New(n)
	for _, i := range idx {
		b.Set(i)
	}
	return b
}

// Len returns the logical length in bits.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// SetRange sets bits lo through hi, inclusive, a word at a time; it does
// nothing when hi < lo.
func (b *Bitmap) SetRange(lo, hi int) {
	if hi < lo {
		return
	}
	b.check(lo)
	b.check(hi)
	lw, hw := lo/wordBits, hi/wordBits
	first := ^uint64(0) << uint(lo%wordBits)
	last := ^uint64(0) >> uint(wordBits-1-hi%wordBits)
	if lw == hw {
		b.words[lw] |= first & last
		return
	}
	b.words[lw] |= first
	for w := lw + 1; w < hw; w++ {
		b.words[w] = ^uint64(0)
	}
	b.words[hw] |= last
}

// Clear clears bit i.
func (b *Bitmap) Clear(i int) {
	b.check(i)
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (b *Bitmap) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmap: index %d out of range [0,%d)", i, b.n))
	}
}

// Count returns the number of set bits (the support counter of Alg 1,
// countBitmap).
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// And returns a new bitmap b & o. Both operands must have equal length.
func (b *Bitmap) And(o *Bitmap) *Bitmap {
	b.sameLen(o)
	r := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	for i := range b.words {
		r.words[i] = b.words[i] & o.words[i]
	}
	return r
}

// AndCount returns Count(b & o) without allocating the intermediate bitmap.
// It is the hot operation of the Apriori node filter (Alg 1, lines 8-9)
// and of the pairwise NMI tables, whose bitmaps span a series' samples;
// four independent sums let long bitmaps overlap their popcounts.
func (b *Bitmap) AndCount(o *Bitmap) int {
	b.sameLen(o)
	x, y := b.words, o.words[:len(b.words)]
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(x); i += 4 {
		c0 += bits.OnesCount64(x[i] & y[i])
		c1 += bits.OnesCount64(x[i+1] & y[i+1])
		c2 += bits.OnesCount64(x[i+2] & y[i+2])
		c3 += bits.OnesCount64(x[i+3] & y[i+3])
	}
	for ; i < len(x); i++ {
		c0 += bits.OnesCount64(x[i] & y[i])
	}
	return c0 + c1 + c2 + c3
}

// Or returns a new bitmap b | o.
func (b *Bitmap) Or(o *Bitmap) *Bitmap {
	b.sameLen(o)
	r := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	for i := range b.words {
		r.words[i] = b.words[i] | o.words[i]
	}
	return r
}

// AndNot returns a new bitmap b &^ o (bits set in b but not in o).
func (b *Bitmap) AndNot(o *Bitmap) *Bitmap {
	b.sameLen(o)
	r := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	for i := range b.words {
		r.words[i] = b.words[i] &^ o.words[i]
	}
	return r
}

// InPlaceAnd sets b = b & o and returns b.
func (b *Bitmap) InPlaceAnd(o *Bitmap) *Bitmap {
	b.sameLen(o)
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
	return b
}

// InPlaceOr sets b = b | o and returns b.
func (b *Bitmap) InPlaceOr(o *Bitmap) *Bitmap {
	b.sameLen(o)
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
	return b
}

// Equal reports whether b and o have identical length and bits.
func (b *Bitmap) Equal(o *Bitmap) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// IsSubsetOf reports whether every set bit of b is also set in o.
func (b *Bitmap) IsSubsetOf(o *Bitmap) bool {
	b.sameLen(o)
	for i := range b.words {
		if b.words[i]&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false, iteration stops.
func (b *Bitmap) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// AppendIndices appends the positions of all set bits in ascending order
// to dst and returns the extended slice — the allocation-free variant of
// Indices for hot loops that reuse one scratch slice across calls (the
// candidate-verification sweep of the miner drives the columnar occurrence
// store off this).
func (b *Bitmap) AppendIndices(dst []int32) []int32 {
	for wi, w := range b.words {
		base := int32(wi * wordBits)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// Reset clears every bit, keeping the length — pooled bitmaps are recycled
// through this instead of reallocating.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Indices returns the positions of all set bits in ascending order.
func (b *Bitmap) Indices() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Words returns the backing words: bit i is bit i%64 of word i/64. The
// slice aliases the bitmap, so word-level unions can be written straight
// into it; bits at or past Len must stay clear.
func (b *Bitmap) Words() []uint64 { return b.words }

// SizeBytes returns the heap footprint of the word storage, used by the
// memory accounting of the experiment harness.
func (b *Bitmap) SizeBytes() int { return len(b.words) * 8 }

func (b *Bitmap) sameLen(o *Bitmap) {
	if b.n != o.n {
		panic(fmt.Sprintf("bitmap: length mismatch %d vs %d", b.n, o.n))
	}
}

// String renders the bitmap as a 0/1 string, most significant sequence
// last, e.g. "1011".
func (b *Bitmap) String() string {
	var sb strings.Builder
	sb.Grow(b.n)
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
