package pattern

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"ftpm/internal/events"
	"ftpm/internal/temporal"
)

// TriIndex maps the role pair (i, j), i < j, of a k-event pattern to its
// position in the row-major upper-triangle relation slice.
func TriIndex(i, j, k int) int {
	if i < 0 || j <= i || j >= k {
		panic(fmt.Sprintf("pattern: invalid role pair (%d,%d) for k=%d", i, j, k))
	}
	return i*(2*k-i-1)/2 + (j - i - 1)
}

// TriLen returns the number of relation slots of a k-event pattern,
// k(k-1)/2.
func TriLen(k int) int { return k * (k - 1) / 2 }

// Pattern is a temporal pattern: Events[i] is the event filling
// chronological role i (ordered by the start times of the realizing
// instances, Def 3.9/3.12), and Rels[TriIndex(i,j,k)] is the relation
// between roles i and j.
type Pattern struct {
	Events []events.EventID
	Rels   []temporal.Relation
}

// New builds a pattern and checks the relation slice length.
func New(evs []events.EventID, rels []temporal.Relation) Pattern {
	if len(rels) != TriLen(len(evs)) {
		panic(fmt.Sprintf("pattern: %d events need %d relations, got %d",
			len(evs), TriLen(len(evs)), len(rels)))
	}
	return Pattern{Events: evs, Rels: rels}
}

// Pair builds the 2-event pattern (a r b).
func Pair(a events.EventID, r temporal.Relation, b events.EventID) Pattern {
	return Pattern{Events: []events.EventID{a, b}, Rels: []temporal.Relation{r}}
}

// K returns the number of events.
func (p Pattern) K() int { return len(p.Events) }

// Relation returns the relation between roles i < j.
func (p Pattern) Relation(i, j int) temporal.Relation {
	return p.Rels[TriIndex(i, j, p.K())]
}

// Triple is one (E_i, r, E_j) element of the paper's pattern notation.
type Triple struct {
	I, J int // chronological roles, I < J
	A, B events.EventID
	Rel  temporal.Relation
}

// Triples lists the pattern as the paper writes it: k(k-1)/2 triples in
// row-major role order.
func (p Pattern) Triples() []Triple {
	k := p.K()
	out := make([]Triple, 0, TriLen(k))
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			out = append(out, Triple{I: i, J: j, A: p.Events[i], B: p.Events[j], Rel: p.Relation(i, j)})
		}
	}
	return out
}

// Key returns a canonical, compact encoding of the pattern usable as a map
// key. Patterns are equal iff their keys are equal.
func (p Pattern) Key() string {
	var sb strings.Builder
	sb.Grow(len(p.Events)*4 + len(p.Rels) + 1)
	sb.WriteByte(byte(len(p.Events)))
	for _, e := range p.Events {
		sb.WriteByte(byte(e))
		sb.WriteByte(byte(e >> 8))
		sb.WriteByte(byte(e >> 16))
		sb.WriteByte(byte(e >> 24))
	}
	for _, r := range p.Rels {
		sb.WriteByte(byte(r))
	}
	return sb.String()
}

// Compare is the one total order of patterns: by size, then by the bytes
// of Key — the events in role order, each by its little-endian bytes, then
// the relations. For equal sizes it agrees with strings.Compare on the
// keys, without building them.
func Compare(a, b Pattern) int {
	if c := cmp.Compare(len(a.Events), len(b.Events)); c != 0 {
		return c
	}
	for i, e := range a.Events {
		if c := CompareEvents(e, b.Events[i]); c != 0 {
			return c
		}
	}
	return slices.Compare(a.Rels, b.Rels)
}

// CompareEvents orders event ids as Key writes them: by their
// little-endian bytes, so 256 sorts before 1.
func CompareEvents(a, b events.EventID) int {
	return cmp.Compare(bits.ReverseBytes32(uint32(a)), bits.ReverseBytes32(uint32(b)))
}

// Equal reports structural equality.
func (p Pattern) Equal(q Pattern) bool {
	if len(p.Events) != len(q.Events) || len(p.Rels) != len(q.Rels) {
		return false
	}
	for i := range p.Events {
		if p.Events[i] != q.Events[i] {
			return false
		}
	}
	for i := range p.Rels {
		if p.Rels[i] != q.Rels[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (p Pattern) Clone() Pattern {
	return Pattern{
		Events: append([]events.EventID(nil), p.Events...),
		Rels:   append([]temporal.Relation(nil), p.Rels...),
	}
}

// Project returns the induced sub-pattern on the given roles (ascending,
// at least two). By Def 3.11 the result keeps the pairwise relations of the
// selected roles; Apriori reasoning (Lemmas 2, 6) is about exactly these
// projections.
func (p Pattern) Project(roles []int) Pattern {
	k := p.K()
	for idx, r := range roles {
		if r < 0 || r >= k || (idx > 0 && roles[idx-1] >= r) {
			panic(fmt.Sprintf("pattern: invalid role selection %v for k=%d", roles, k))
		}
	}
	m := len(roles)
	evs := make([]events.EventID, m)
	for i, r := range roles {
		evs[i] = p.Events[r]
	}
	rels := make([]temporal.Relation, TriLen(m))
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			rels[TriIndex(i, j, m)] = p.Relation(roles[i], roles[j])
		}
	}
	return Pattern{Events: evs, Rels: rels}
}

// SubPatternOf reports whether p is a sub-pattern of q (P' ⊆ P, Def 3.11):
// q has a role subset whose induced sub-pattern equals p. Roles must map
// order-preservingly since both patterns are chronologically ordered.
func (p Pattern) SubPatternOf(q Pattern) bool {
	if p.K() > q.K() {
		return false
	}
	return subSearch(p, q, 0, make([]int, 0, p.K()))
}

func subSearch(p, q Pattern, from int, chosen []int) bool {
	if len(chosen) == p.K() {
		return p.Equal(q.Project(chosen))
	}
	need := p.K() - len(chosen)
	for r := from; r <= q.K()-need; r++ {
		if q.Events[r] != p.Events[len(chosen)] {
			continue
		}
		if subSearch(p, q, r+1, append(chosen, r)) {
			return true
		}
	}
	return false
}

// EventMultiset returns the sorted multiset of event ids — the node
// identity in the Hierarchical Pattern Graph.
func (p Pattern) EventMultiset() []events.EventID {
	ms := append([]events.EventID(nil), p.Events...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	return ms
}

// String renders with raw event ids; use Format for readable output.
func (p Pattern) String() string {
	parts := make([]string, 0, TriLen(p.K()))
	for _, t := range p.Triples() {
		parts = append(parts, fmt.Sprintf("(%d %s %d)", t.A, t.Rel.Symbol(), t.B))
	}
	return strings.Join(parts, " ")
}

// Format renders the pattern with event names from the vocabulary, in the
// paper's triple notation, e.g. "(K=On ≽ T=On), (K=On → M=On), (T=On → M=On)".
func (p Pattern) Format(v *events.Vocab) string {
	parts := make([]string, 0, TriLen(p.K()))
	for _, t := range p.Triples() {
		parts = append(parts, fmt.Sprintf("(%s %s %s)", v.Name(t.A), t.Rel.Symbol(), v.Name(t.B)))
	}
	return strings.Join(parts, ", ")
}

// FormatChain renders a compact chain form listing events in chronological
// role order, e.g. "K=On ≽ T=On → M=On": each event is linked to the next
// by their pairwise relation. The full relation matrix is only recoverable
// from Format; FormatChain is for human scanning.
func (p Pattern) FormatChain(v *events.Vocab) string {
	var sb strings.Builder
	for i, e := range p.Events {
		if i > 0 {
			sb.WriteString(" " + p.Relation(i-1, i).Symbol() + " ")
		}
		sb.WriteString(v.Name(e))
	}
	return sb.String()
}

// MultisetKey encodes a sorted event multiset as a map key (node identity
// in the HPG).
func MultisetKey(ms []events.EventID) string {
	var sb strings.Builder
	sb.Grow(len(ms) * 4)
	for _, e := range ms {
		sb.WriteByte(byte(e))
		sb.WriteByte(byte(e >> 8))
		sb.WriteByte(byte(e >> 16))
		sb.WriteByte(byte(e >> 24))
	}
	return sb.String()
}
