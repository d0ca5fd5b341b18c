package hpg

import (
	"fmt"
	"slices"

	"ftpm/internal/bitmap"
	"ftpm/internal/events"
	"ftpm/internal/pattern"
)

// Occurrence is one realization of a pattern inside a sequence: the indexes
// (into Sequence.Instances) of the instances filling the pattern's
// chronological roles, in role order. Bulk occurrence storage lives in
// OccStore; the standalone slice type remains for samples and rendering.
type Occurrence []int32

// Contains reports whether instance index idx is part of the occurrence.
func (o Occurrence) Contains(idx int32) bool {
	for _, v := range o {
		if v == idx {
			return true
		}
	}
	return false
}

// PatternData is one frequent temporal pattern stored in a node.
type PatternData struct {
	Pattern    pattern.Pattern
	Bitmap     *bitmap.Bitmap // sequences supporting the pattern
	Support    int
	Confidence float64
	// Occs holds the occurrence tuples realizing the pattern, columnar by
	// sequence. Level k+1 extends these; nil once released.
	Occs *OccStore
	// SampleSeq and SampleOcc retain one representative occurrence for
	// rendering even after Occs is released (-1 when unknown).
	SampleSeq int
	SampleOcc Occurrence
}

// Node is one k-event combination: a sorted multiset of event ids with the
// joint bitmap and the frequent patterns of the combination.
type Node struct {
	Events []events.EventID // sorted ascending (multiset)
	Bitmap *bitmap.Bitmap   // sequences containing all events
	// Support is the combination support supp(E1,...,Ek) (Def 3.13).
	Support int
	// GroupConfidence is conf(E1,...,Ek) = Support / max single support
	// (Def 3.15 generalized); Lemma 3 filters on it.
	GroupConfidence float64

	patterns []*PatternData // in pattern.Compare order
}

// NewNode creates a node for the sorted event multiset.
func NewNode(ms []events.EventID, bm *bitmap.Bitmap, support int, groupConf float64) *Node {
	for i := 1; i < len(ms); i++ {
		if ms[i-1] > ms[i] {
			panic(fmt.Sprintf("hpg: node events not sorted: %v", ms))
		}
	}
	return &Node{Events: ms, Bitmap: bm, Support: support, GroupConfidence: groupConf}
}

// K returns the combination size.
func (n *Node) K() int { return len(n.Events) }

// AddPattern appends a frequent pattern to the node. Patterns arrive in
// pattern.Compare order, each strictly after the last; a duplicate or
// out-of-order insert panics — the miner merges and sorts before
// insertion.
func (n *Node) AddPattern(pd *PatternData) {
	if l := len(n.patterns); l > 0 && pattern.Compare(n.patterns[l-1].Pattern, pd.Pattern) >= 0 {
		panic("hpg: duplicate or out-of-order pattern inserted")
	}
	n.patterns = append(n.patterns, pd)
}

// Grow makes room for c more patterns, so the next c AddPattern calls
// append without reallocating.
func (n *Node) Grow(c int) { n.patterns = slices.Grow(n.patterns, c) }

// NumPatterns returns the number of stored frequent patterns.
func (n *Node) NumPatterns() int { return len(n.patterns) }

// Patterns returns the node's patterns in pattern.Compare order. Callers
// must not modify the slice.
func (n *Node) Patterns() []*PatternData { return n.patterns }

// DropOccurrences releases the occurrence storage of all patterns — called
// once a level can no longer be extended, to bound memory.
func (n *Node) DropOccurrences() {
	for _, pd := range n.patterns {
		pd.Occs = nil
	}
}

// Level is one level of the graph: the frequent k-event combinations, in
// the order the miner added them. The miner generates each multiset once
// and adds the nodes in task order, which no worker count changes.
type Level struct {
	K     int
	nodes []*Node
}

// NewLevel creates an empty level for combination size k.
func NewLevel(k int) *Level { return &Level{K: k} }

// Add appends a node.
func (l *Level) Add(n *Node) {
	if n.K() != l.K {
		panic(fmt.Sprintf("hpg: node of size %d added to level %d", n.K(), l.K))
	}
	l.nodes = append(l.nodes, n)
}

// Size returns the number of nodes.
func (l *Level) Size() int { return len(l.nodes) }

// Nodes returns the level's nodes in insertion order. Callers must not
// modify the slice.
func (l *Level) Nodes() []*Node { return l.nodes }

// DistinctEvents returns the distinct single events appearing in the
// level's nodes (the set D_{k-1} of Lemma 5's Filtered1Freq), ascending.
func (l *Level) DistinctEvents() []events.EventID {
	var out []events.EventID
	for _, n := range l.nodes {
		out = append(out, n.Events...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Graph is the Hierarchical Pattern Graph: Levels[0] is L1.
type Graph struct {
	Levels []*Level
}

// Level returns L_k (1-based like the paper), or nil if not mined.
func (g *Graph) Level(k int) *Level {
	if k < 1 || k > len(g.Levels) {
		return nil
	}
	return g.Levels[k-1]
}

// Height returns the deepest mined level.
func (g *Graph) Height() int { return len(g.Levels) }
