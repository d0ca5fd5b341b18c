package pattern

import (
	"cmp"
	"strings"
	"testing"
	"testing/quick"

	"ftpm/internal/events"
	"ftpm/internal/temporal"
)

func TestTriIndex(t *testing.T) {
	// k=4 upper triangle, row-major: (0,1)(0,2)(0,3)(1,2)(1,3)(2,3).
	want := [][3]int{{0, 1, 0}, {0, 2, 1}, {0, 3, 2}, {1, 2, 3}, {1, 3, 4}, {2, 3, 5}}
	for _, w := range want {
		if got := TriIndex(w[0], w[1], 4); got != w[2] {
			t.Errorf("TriIndex(%d,%d,4) = %d, want %d", w[0], w[1], got, w[2])
		}
	}
	if TriLen(4) != 6 || TriLen(2) != 1 || TriLen(1) != 0 {
		t.Error("TriLen wrong")
	}
}

func TestTriIndexPanics(t *testing.T) {
	for _, c := range [][3]int{{1, 1, 3}, {2, 1, 3}, {-1, 1, 3}, {0, 3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TriIndex(%v) should panic", c)
				}
			}()
			TriIndex(c[0], c[1], c[2])
		}()
	}
}

func TestNewValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong relation count")
		}
	}()
	New([]events.EventID{1, 2, 3}, []temporal.Relation{temporal.Follow})
}

func mk3(t *testing.T) Pattern {
	t.Helper()
	// K=0 contains T=1, K follows-into M=2, T follows M — the paper's
	// 3-event example P = <(K ≽ T), (K → M), (T → M)>.
	return New([]events.EventID{0, 1, 2}, []temporal.Relation{temporal.Contain, temporal.Follow, temporal.Follow})
}

func TestTriplesAndRelation(t *testing.T) {
	p := mk3(t)
	tr := p.Triples()
	if len(tr) != 3 {
		t.Fatalf("triples = %d", len(tr))
	}
	if tr[0].A != 0 || tr[0].B != 1 || tr[0].Rel != temporal.Contain {
		t.Errorf("triple 0 = %+v", tr[0])
	}
	if p.Relation(1, 2) != temporal.Follow {
		t.Error("Relation(1,2) wrong")
	}
}

func TestKeyUniqueness(t *testing.T) {
	p := mk3(t)
	q := p.Clone()
	if p.Key() != q.Key() || !p.Equal(q) {
		t.Fatal("clone must have identical key")
	}
	q.Rels[0] = temporal.Overlap
	if p.Key() == q.Key() || p.Equal(q) {
		t.Fatal("different relation must change key")
	}
	r := p.Clone()
	r.Events[2] = 9
	if p.Key() == r.Key() {
		t.Fatal("different event must change key")
	}
	// 2-event vs 3-event patterns never collide.
	if Pair(0, temporal.Contain, 1).Key() == p.Key() {
		t.Fatal("k must be part of the key")
	}
}

func TestKeyEventIDWidth(t *testing.T) {
	// Event ids above one byte must round-trip into distinct keys.
	a := Pair(255, temporal.Follow, 256)
	b := Pair(256, temporal.Follow, 255)
	c := Pair(511, temporal.Follow, 0)
	keys := map[string]bool{a.Key(): true, b.Key(): true, c.Key(): true}
	if len(keys) != 3 {
		t.Fatal("wide event ids must produce distinct keys")
	}
}

func TestProject(t *testing.T) {
	p := mk3(t)
	sub := p.Project([]int{0, 2})
	if sub.K() != 2 || sub.Events[0] != 0 || sub.Events[1] != 2 || sub.Rels[0] != temporal.Follow {
		t.Fatalf("Project(0,2) = %v", sub)
	}
	sub = p.Project([]int{0, 1})
	if sub.Rels[0] != temporal.Contain {
		t.Fatalf("Project(0,1) = %v", sub)
	}
}

func TestProjectPanics(t *testing.T) {
	p := mk3(t)
	for _, roles := range [][]int{{1, 0}, {0, 0}, {0, 5}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Project(%v) should panic", roles)
				}
			}()
			p.Project(roles)
		}()
	}
}

func TestSubPatternOf(t *testing.T) {
	p := mk3(t)
	for _, roles := range [][]int{{0, 1}, {0, 2}, {1, 2}} {
		if !p.Project(roles).SubPatternOf(p) {
			t.Errorf("projection %v must be a sub-pattern", roles)
		}
	}
	if !p.SubPatternOf(p) {
		t.Error("pattern is a sub-pattern of itself")
	}
	no := Pair(0, temporal.Overlap, 1)
	if no.SubPatternOf(p) {
		t.Error("(0 G 1) is not in p")
	}
	big := New([]events.EventID{5, 6, 7, 8}, make([]temporal.Relation, 6))
	if big.SubPatternOf(p) {
		t.Error("larger pattern cannot be a sub-pattern")
	}
}

func TestSubPatternOfDuplicateEvents(t *testing.T) {
	// q = <A,A,B> where (A0 → A1), (A0 ≽ B), (A1 G B).
	q := New([]events.EventID{1, 1, 2}, []temporal.Relation{temporal.Follow, temporal.Contain, temporal.Overlap})
	// (A G B) matches roles {1,2} even though roles {0,2} give (A ≽ B).
	if !Pair(1, temporal.Overlap, 2).SubPatternOf(q) {
		t.Error("backtracking over duplicate events failed")
	}
	if !Pair(1, temporal.Contain, 2).SubPatternOf(q) {
		t.Error("first branch must also match")
	}
	if Pair(2, temporal.Follow, 1).SubPatternOf(q) {
		t.Error("order must be preserved")
	}
}

func TestEventMultiset(t *testing.T) {
	p := New([]events.EventID{5, 1, 5}, make([]temporal.Relation, 3))
	ms := p.EventMultiset()
	if len(ms) != 3 || ms[0] != 1 || ms[1] != 5 || ms[2] != 5 {
		t.Fatalf("multiset = %v", ms)
	}
	// The original pattern must not be reordered.
	if p.Events[0] != 5 || p.Events[1] != 1 {
		t.Fatal("EventMultiset must not mutate the pattern")
	}
}

func TestMultisetKey(t *testing.T) {
	a := MultisetKey([]events.EventID{1, 2})
	b := MultisetKey([]events.EventID{2, 1})
	if a == b {
		t.Error("MultisetKey encodes the slice as-is; caller sorts")
	}
	if MultisetKey([]events.EventID{1, 2}) != MultisetKey([]events.EventID{1, 2}) {
		t.Error("key must be deterministic")
	}
	if MultisetKey([]events.EventID{256}) == MultisetKey([]events.EventID{1}) {
		t.Error("wide ids must not collide")
	}
}

func TestFormatting(t *testing.T) {
	v := events.NewVocab()
	k := v.Define("K", "On")
	tt := v.Define("T", "On")
	m := v.Define("M", "On")
	p := New([]events.EventID{k, tt, m}, []temporal.Relation{temporal.Contain, temporal.Follow, temporal.Follow})
	f := p.Format(v)
	if f != "(K=On ≽ T=On), (K=On → M=On), (T=On → M=On)" {
		t.Errorf("Format = %q", f)
	}
	c := p.FormatChain(v)
	if c != "K=On ≽ T=On → M=On" {
		t.Errorf("FormatChain = %q", c)
	}
	if p.String() == "" {
		t.Error("String must render")
	}
}

// Property: Project of the full role set is the identity, and every
// projection is a sub-pattern.
func TestProjectProperty(t *testing.T) {
	f := func(e1, e2, e3, e4 uint8, r raw6) bool {
		evs := []events.EventID{events.EventID(e1), events.EventID(e2), events.EventID(e3), events.EventID(e4)}
		rels := r.relations()
		p := New(evs, rels)
		if !p.Project([]int{0, 1, 2, 3}).Equal(p) {
			return false
		}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if !p.Project([]int{i, j}).SubPatternOf(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

type raw6 [6]uint8

func (r raw6) relations() []temporal.Relation {
	out := make([]temporal.Relation, 6)
	for i, v := range r {
		out[i] = temporal.Relation(v%3) + temporal.Follow
	}
	return out
}

// fuzzPattern decodes a pattern from b: a size byte (mod 6), then four
// little-endian bytes per event and one byte per relation, zero-padded
// when b runs short.
func fuzzPattern(b []byte) Pattern {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	k := int(next() % 6)
	p := Pattern{Events: make([]events.EventID, k), Rels: make([]temporal.Relation, TriLen(k))}
	for i := range p.Events {
		p.Events[i] = events.EventID(uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24)
	}
	for i := range p.Rels {
		p.Rels[i] = temporal.Relation(next())
	}
	return p
}

// fuzzSeed encodes a pattern the way fuzzPattern decodes it.
func fuzzSeed(evs []events.EventID, rels ...temporal.Relation) []byte {
	b := []byte{byte(len(evs))}
	for _, e := range evs {
		b = append(b, byte(e), byte(e>>8), byte(e>>16), byte(e>>24))
	}
	for _, r := range rels {
		b = append(b, byte(r))
	}
	return b
}

// FuzzCompareMatchesKey holds Compare to the order it replaces: size
// first, then the bytes of Key. Event ids of 256 and more are where the
// key's little-endian bytes and numeric order part ways.
func FuzzCompareMatchesKey(f *testing.F) {
	ev := func(ids ...events.EventID) []events.EventID { return ids }
	fl, co, ov := temporal.Follow, temporal.Contain, temporal.Overlap
	f.Add(fuzzSeed(ev(1, 2), fl), fuzzSeed(ev(256, 2), fl))
	f.Add(fuzzSeed(ev(255, 3), co), fuzzSeed(ev(256, 3), co))
	f.Add(fuzzSeed(ev(7, 1), ov), fuzzSeed(ev(7, 256), ov))
	f.Add(fuzzSeed(ev(0, 1, 2), co, fl, fl), fuzzSeed(ev(0, 1, 2), co, fl, ov))
	f.Add(fuzzSeed(ev(9, 9), fl), fuzzSeed(ev(0, 0, 0), fl, fl, fl))
	f.Add(fuzzSeed(ev(300, 1, 2), fl, fl, fl), fuzzSeed(ev(44, 1), fl))
	f.Add(fuzzSeed(ev(65536, 1), fl), fuzzSeed(ev(255, 1), fl))
	f.Add(fuzzSeed(ev(3, 4), fl), fuzzSeed(ev(3, 4), fl))
	f.Fuzz(func(t *testing.T, ba, bb []byte) {
		a, b := fuzzPattern(ba), fuzzPattern(bb)
		ka, kb := a.Key(), b.Key()
		want := cmp.Compare(a.K(), b.K())
		if want == 0 {
			want = strings.Compare(ka, kb)
		}
		if got := Compare(a, b); got != want {
			t.Fatalf("Compare(%v, %v) = %d, want %d (keys %x, %x)", a, b, got, want, ka, kb)
		}
		if got := Compare(b, a); got != -want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", b, a, got, -want)
		}
		if Compare(a, a) != 0 {
			t.Fatalf("Compare(%v, itself) != 0", a)
		}
		if a.K() == b.K() && (ka == kb) != a.Equal(b) {
			t.Fatalf("equal keys and Equal disagree on %v, %v", a, b)
		}
	})
}
