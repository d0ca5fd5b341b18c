package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndBasicOps(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	if b.Any() {
		t.Error("fresh bitmap should be empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Errorf("Count = %d, want 8", got)
	}
	b.Clear(64)
	if b.Get(64) {
		t.Error("bit 64 should be cleared")
	}
	if got := b.Count(); got != 7 {
		t.Errorf("Count after clear = %d, want 7", got)
	}
	if !b.Any() {
		t.Error("bitmap with bits should be Any")
	}
}

func TestBoundsPanics(t *testing.T) {
	b := New(10)
	for _, fn := range []func(){
		func() { b.Set(10) },
		func() { b.Get(-1) },
		func() { b.Clear(11) },
		func() { New(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFromIndices(t *testing.T) {
	b := FromIndices(8, 1, 3, 5)
	if b.String() != "01010100" {
		t.Errorf("String = %q, want 01010100", b.String())
	}
}

func TestAndOrAndNot(t *testing.T) {
	a := FromIndices(100, 1, 2, 3, 70)
	b := FromIndices(100, 2, 3, 4, 71)
	and := a.And(b)
	if got := and.Indices(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("And indices = %v", got)
	}
	if a.AndCount(b) != 2 {
		t.Errorf("AndCount = %d, want 2", a.AndCount(b))
	}
	or := a.Or(b)
	if or.Count() != 6 {
		t.Errorf("Or count = %d, want 6", or.Count())
	}
	diff := a.AndNot(b)
	if got := diff.Indices(); len(got) != 2 || got[0] != 1 || got[1] != 70 {
		t.Errorf("AndNot indices = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromIndices(64, 0, 1, 2)
	b := FromIndices(64, 1, 2, 3)
	a.InPlaceAnd(b)
	if got := a.Indices(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("InPlaceAnd = %v", got)
	}
	a.InPlaceOr(FromIndices(64, 40))
	if !a.Get(40) || a.Count() != 3 {
		t.Error("InPlaceOr failed")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(10).And(New(11))
}

func TestEqualAndSubset(t *testing.T) {
	a := FromIndices(70, 1, 5, 69)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone must be equal")
	}
	b.Set(2)
	if a.Equal(b) {
		t.Error("mutated clone must differ")
	}
	if !a.IsSubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.IsSubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	if a.Equal(New(71)) {
		t.Error("different lengths must not be equal")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	b := FromIndices(100, 10, 20, 30)
	var seen []int
	b.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 10 || seen[1] != 20 {
		t.Errorf("early stop iteration = %v", seen)
	}
}

func TestSizeBytes(t *testing.T) {
	if New(0).SizeBytes() != 0 {
		t.Error("empty bitmap size")
	}
	if New(1).SizeBytes() != 8 {
		t.Error("one-bit bitmap should take one word")
	}
	if New(65).SizeBytes() != 16 {
		t.Error("65-bit bitmap should take two words")
	}
}

// Property: AndCount(a,b) == Count(And(a,b)) and the count never exceeds
// either operand's count (the Apriori monotonicity the miner relies on).
func TestAndCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func(n int) *Bitmap {
		b := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				b.Set(i)
			}
		}
		return b
	}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(300)
		a, b := gen(n), gen(n)
		and := a.And(b)
		if a.AndCount(b) != and.Count() {
			t.Fatalf("AndCount mismatch at n=%d", n)
		}
		if and.Count() > a.Count() || and.Count() > b.Count() {
			t.Fatalf("AND count exceeds operand count")
		}
		if !and.IsSubsetOf(a) || !and.IsSubsetOf(b) {
			t.Fatalf("AND not a subset of operands")
		}
	}
}

// Property: Indices round-trips through FromIndices.
func TestIndicesRoundTripProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		n := 1024
		b := New(n)
		for _, r := range raw {
			b.Set(int(r) % n)
		}
		c := FromIndices(n, b.Indices()...)
		return b.Equal(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendIndices(t *testing.T) {
	b := FromIndices(200, 0, 63, 64, 130, 199)
	got := b.AppendIndices(nil)
	want := b.Indices()
	if len(got) != len(want) {
		t.Fatalf("AppendIndices returned %d indexes, want %d", len(got), len(want))
	}
	for i := range want {
		if int(got[i]) != want[i] {
			t.Fatalf("index %d = %d, want %d", i, got[i], want[i])
		}
	}
	// Appends after existing content, preserving the prefix.
	pre := []int32{-1}
	ext := b.AppendIndices(pre)
	if ext[0] != -1 || len(ext) != len(want)+1 {
		t.Fatalf("AppendIndices must extend dst: %v", ext)
	}
	// Reusing the scratch slice yields identical content without growth.
	again := b.AppendIndices(got[:0])
	if &again[0] != &got[0] || len(again) != len(want) {
		t.Fatal("AppendIndices must reuse the provided capacity")
	}
	if out := New(10).AppendIndices(nil); len(out) != 0 {
		t.Fatalf("empty bitmap yields %v", out)
	}
}

func TestReset(t *testing.T) {
	b := FromIndices(130, 1, 64, 129)
	b.Reset()
	if b.Len() != 130 || b.Any() || b.Count() != 0 {
		t.Fatalf("Reset left state: len=%d count=%d", b.Len(), b.Count())
	}
	b.Set(129)
	if !b.Get(129) || b.Count() != 1 {
		t.Fatal("bitmap must be reusable after Reset")
	}
}

// Property: SetRange equals setting each bit of the range in turn, for
// ranges that start and end on and around word edges.
func TestSetRangeMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 63, 64, 65, 129, 300} {
		for trial := 0; trial < 200; trial++ {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo)
			got, want := New(n), New(n)
			got.Set(rng.Intn(n)) // ranges OR into bits already set
			copy(want.words, got.words)
			got.SetRange(lo, hi)
			for i := lo; i <= hi; i++ {
				want.Set(i)
			}
			if !got.Equal(want) {
				t.Fatalf("n=%d SetRange(%d,%d) = %s, want %s", n, lo, hi, got, want)
			}
		}
	}
	b := New(10)
	b.SetRange(5, 4)
	if b.Any() {
		t.Error("an empty range must set nothing")
	}
}
