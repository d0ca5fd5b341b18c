package hpg

import (
	"testing"

	"ftpm/internal/bitmap"
	"ftpm/internal/events"
	"ftpm/internal/pattern"
	"ftpm/internal/temporal"
)

func TestOccurrenceContains(t *testing.T) {
	o := Occurrence{1, 300, 70000}
	if !o.Contains(300) || o.Contains(2) {
		t.Error("Contains wrong")
	}
}

func mkNode(t *testing.T, evs ...events.EventID) *Node {
	t.Helper()
	return NewNode(evs, bitmap.FromIndices(4, 0, 1), 2, 0.5)
}

func TestNodeBasics(t *testing.T) {
	n := mkNode(t, 1, 2)
	if n.K() != 2 || n.Support != 2 || n.GroupConfidence != 0.5 {
		t.Errorf("node fields wrong: %+v", n)
	}
	pd := &PatternData{Pattern: pattern.Pair(1, temporal.Follow, 2), Bitmap: bitmap.New(4), Support: 2}
	n.AddPattern(pd)
	if n.NumPatterns() != 1 {
		t.Error("AddPattern failed")
	}
	ps := n.Patterns()
	if len(ps) != 1 || ps[0] != pd {
		t.Error("Patterns iteration wrong")
	}
	pd.Occs = &OccStore{}
	pd.Occs.Reset(2)
	pd.Occs.Append(0, []int32{1, 2})
	n.DropOccurrences()
	if pd.Occs != nil {
		t.Error("DropOccurrences must nil the storage")
	}
}

func TestNodePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unsorted multiset must panic")
			}
		}()
		NewNode([]events.EventID{2, 1}, bitmap.New(1), 0, 0)
	}()
	n := mkNode(t, 1, 2)
	pd := &PatternData{Pattern: pattern.Pair(1, temporal.Follow, 2), Bitmap: bitmap.New(4)}
	n.AddPattern(pd)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate pattern must panic")
			}
		}()
		n.AddPattern(&PatternData{Pattern: pattern.Pair(1, temporal.Follow, 2), Bitmap: bitmap.New(4)})
	}()
	n = mkNode(t, 1, 2)
	n.AddPattern(&PatternData{Pattern: pattern.Pair(1, temporal.Contain, 2), Bitmap: bitmap.New(4)})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-order pattern must panic")
			}
		}()
		n.AddPattern(&PatternData{Pattern: pattern.Pair(1, temporal.Follow, 2), Bitmap: bitmap.New(4)})
	}()
}

func TestLevel(t *testing.T) {
	l := NewLevel(2)
	a := mkNode(t, 1, 2)
	b := mkNode(t, 1, 3)
	l.Add(a)
	l.Add(b)
	if l.Size() != 2 {
		t.Error("Size wrong")
	}
	nodes := l.Nodes()
	if len(nodes) != 2 {
		t.Error("Nodes wrong")
	}
	de := l.DistinctEvents()
	if len(de) != 3 || de[0] != 1 || de[1] != 2 || de[2] != 3 {
		t.Errorf("DistinctEvents = %v", de)
	}
}

func TestLevelPanics(t *testing.T) {
	l := NewLevel(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong-size node must panic")
			}
		}()
		l.Add(NewNode([]events.EventID{1}, bitmap.New(1), 1, 1))
	}()
}

func TestGraph(t *testing.T) {
	g := &Graph{}
	if g.Level(1) != nil || g.Height() != 0 {
		t.Error("empty graph")
	}
	g.Levels = append(g.Levels, NewLevel(1), NewLevel(2))
	if g.Height() != 2 || g.Level(1).K != 1 || g.Level(2).K != 2 {
		t.Error("level addressing wrong")
	}
	if g.Level(0) != nil || g.Level(3) != nil {
		t.Error("out-of-range levels must be nil")
	}
}
