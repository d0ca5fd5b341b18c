package temporal

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIntervalPanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for end < start")
		}
	}()
	NewInterval(10, 5)
}

func TestIntervalBasics(t *testing.T) {
	iv := NewInterval(10, 20)
	if got := iv.Duration(); got != 10 {
		t.Errorf("Duration = %d, want 10", got)
	}
	if !iv.Contains(10) || iv.Contains(20) || !iv.Contains(19) || iv.Contains(9) {
		t.Errorf("Contains boundary behaviour wrong for %v", iv)
	}
}

func TestIntervalClip(t *testing.T) {
	iv := NewInterval(10, 30)
	cases := []struct {
		lo, hi Time
		want   Interval
		ok     bool
	}{
		{0, 100, Interval{10, 30}, true},
		{15, 25, Interval{15, 25}, true},
		{0, 10, Interval{}, false},
		{30, 40, Interval{}, false},
		{25, 100, Interval{25, 30}, true},
	}
	for _, c := range cases {
		got, ok := iv.Clip(c.lo, c.hi)
		if ok != c.ok || got != c.want {
			t.Errorf("Clip(%d,%d) = %v,%v want %v,%v", c.lo, c.hi, got, ok, c.want, c.ok)
		}
	}
}

func TestIntervalBefore(t *testing.T) {
	a := NewInterval(1, 5)
	b := NewInterval(1, 7)
	c := NewInterval(2, 3)
	// Ties on start put the longer (containing) interval first.
	if !b.Before(a) || a.Before(b) {
		t.Error("tie on start must put the longer interval first")
	}
	if !a.Before(c) || c.Before(a) {
		t.Error("ordering by start broken")
	}
	if a.Before(a) {
		t.Error("Before must be irreflexive")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Epsilon: -1, MinOverlap: 5},
		{Epsilon: 0, MinOverlap: 0},
		{Epsilon: 5, MinOverlap: 5},
		{Epsilon: 6, MinOverlap: 5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

func TestClassifyPaperTableII(t *testing.T) {
	// The three canonical layouts from Table II with epsilon=0, d_o=1.
	cfg := Config{Epsilon: 0, MinOverlap: 1}

	// Follow: e1 ends before e2 starts.
	if r := cfg.Classify(NewInterval(0, 10), NewInterval(10, 20)); r != Follow {
		t.Errorf("touching intervals: got %v, want Follow", r)
	}
	if r := cfg.Classify(NewInterval(0, 10), NewInterval(15, 20)); r != Follow {
		t.Errorf("gap: got %v, want Follow", r)
	}
	// Contain: e1 covers e2 entirely.
	if r := cfg.Classify(NewInterval(0, 100), NewInterval(10, 50)); r != Contain {
		t.Errorf("nested: got %v, want Contain", r)
	}
	// Same start, e1 longer: Contain with ts1 == ts2.
	if r := cfg.Classify(NewInterval(0, 100), NewInterval(0, 100)); r != Contain {
		t.Errorf("identical intervals: got %v, want Contain (self-relation)", r)
	}
	// Same start, first longer (canonical order): the longer contains the
	// shorter (Allen's "starts", folded into Contain by Def 3.7).
	if r := cfg.Classify(NewInterval(0, 100), NewInterval(0, 40)); r != Contain {
		t.Errorf("same-start nest: got %v, want Contain", r)
	}
	// Overlap: partial overlap of at least d_o.
	if r := cfg.Classify(NewInterval(0, 10), NewInterval(5, 20)); r != Overlap {
		t.Errorf("partial overlap: got %v, want Overlap", r)
	}
	// Overlap shorter than d_o yields None.
	big := Config{Epsilon: 0, MinOverlap: 10}
	if r := big.Classify(NewInterval(0, 10), NewInterval(5, 20)); r != None {
		t.Errorf("overlap below d_o: got %v, want None", r)
	}
}

func TestClassifyEpsilonBuffer(t *testing.T) {
	cfg := Config{Epsilon: 2, MinOverlap: 5}
	// b starts 1 tick before a ends: within epsilon, still Follow.
	if r := cfg.Classify(NewInterval(0, 10), NewInterval(9, 20)); r != Follow {
		t.Errorf("epsilon-tolerant follow: got %v, want Follow", r)
	}
	// b ends 2 ticks after a ends: within epsilon, still Contain.
	if r := cfg.Classify(NewInterval(0, 10), NewInterval(2, 12)); r != Contain {
		t.Errorf("epsilon-tolerant contain: got %v, want Contain", r)
	}
	// Overlap minimum is softened by epsilon: overlap of d_o-epsilon passes.
	if r := cfg.Classify(NewInterval(0, 10), NewInterval(7, 20)); r != Overlap {
		t.Errorf("epsilon-softened overlap: got %v, want Overlap", r)
	}
}

func TestClassifyPanicsOnUnordered(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when first interval starts later")
		}
	}()
	DefaultConfig().Classify(NewInterval(10, 20), NewInterval(0, 5))
}

// Property: Classify returns exactly one outcome and never panics for
// chronologically ordered inputs, for any valid configuration.
func TestClassifyTotalAndExclusiveProperty(t *testing.T) {
	f := func(s1, d1, gap, d2 uint16, eps, do uint8) bool {
		cfg := Config{Epsilon: int64(eps % 4), MinOverlap: int64(do%16) + 4}
		if cfg.Epsilon >= cfg.MinOverlap {
			cfg.Epsilon = cfg.MinOverlap - 1
		}
		a := NewInterval(int64(s1), int64(s1)+int64(d1))
		bStart := a.Start + int64(gap%512)
		b := NewInterval(bStart, bStart+int64(d2))
		if b.Before(a) {
			a, b = b, a
		}
		r := cfg.Classify(a, b)
		// The outcome must be one of the four defined values.
		return r == None || r.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: with epsilon = 0 the three relation predicates (without the
// precedence chain) are already mutually exclusive; Classify must agree with
// the raw predicates.
func TestClassifyAgreesWithRawPredicatesEpsilonZero(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := Config{Epsilon: 0, MinOverlap: 3}
	for i := 0; i < 20000; i++ {
		aStart := int64(rng.Intn(50))
		a := NewInterval(aStart, aStart+int64(rng.Intn(30)))
		bStart := a.Start + int64(rng.Intn(40))
		b := NewInterval(bStart, bStart+int64(rng.Intn(30)))
		if b.Before(a) {
			a, b = b, a
		}
		follow := b.Start >= a.End
		contain := a.Start <= b.Start && a.End >= b.End
		overlap := a.Start < b.Start && a.End < b.End && a.End-b.Start >= cfg.MinOverlap

		// For positive-duration instances the raw predicates are already
		// exclusive; degenerate zero-length intervals at a boundary can
		// satisfy two, which is what the classifier's precedence resolves.
		if a.Duration() > 0 && b.Duration() > 0 {
			n := 0
			if follow {
				n++
			}
			if contain {
				n++
			}
			if overlap {
				n++
			}
			if n > 1 {
				t.Fatalf("raw predicates not exclusive for %v,%v", a, b)
			}
		}
		got := cfg.Classify(a, b)
		want := None
		switch {
		case follow:
			want = Follow
		case contain:
			want = Contain
		case overlap:
			want = Overlap
		}
		if got != want {
			t.Fatalf("Classify(%v,%v) = %v, want %v", a, b, got, want)
		}
	}
}

func TestRelationStrings(t *testing.T) {
	if Follow.String() != "->" || Contain.String() != "contains" || Overlap.String() != "overlaps" || None.String() != "none" {
		t.Error("relation String() mismatch")
	}
	if Follow.Symbol() != "→" || Contain.Symbol() != "≽" || Overlap.Symbol() != "G" {
		t.Error("relation Symbol() mismatch")
	}
	if Relation(9).String() == "" || Relation(9).Symbol() != "?" {
		t.Error("out-of-range relation rendering")
	}
	if None.Valid() || !Follow.Valid() || !Contain.Valid() || !Overlap.Valid() || Relation(17).Valid() {
		t.Error("Valid() mismatch")
	}
}

// TestAlwaysRelates checks AlwaysRelates exhaustively on small integer
// intervals: where it holds Classify never returns None, and where it does
// not some pair of intervals classifies as None.
func TestAlwaysRelates(t *testing.T) {
	for eps := int64(0); eps <= 4; eps++ {
		for do := eps + 1; do <= 12; do++ {
			cfg := Config{Epsilon: eps, MinOverlap: do}
			none := false
			for as := int64(0); as < 12; as++ {
				for al := int64(0); al < 12; al++ {
					for bs := as; bs < 12; bs++ {
						for bl := int64(0); bl < 12; bl++ {
							a, b := NewInterval(as, as+al), NewInterval(bs, bs+bl)
							if b.Before(a) {
								continue
							}
							none = none || cfg.Classify(a, b) == None
						}
					}
				}
			}
			if none == cfg.AlwaysRelates() {
				t.Errorf("%+v: AlwaysRelates() = %v, but a pair classifies as None: %v", cfg, cfg.AlwaysRelates(), none)
			}
		}
	}
}
