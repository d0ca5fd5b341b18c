package events

import (
	"fmt"
	"math/rand"
	"testing"

	"ftpm/internal/temporal"
	"ftpm/internal/timeseries"
)

func TestVocabInterning(t *testing.T) {
	v := NewVocab()
	k1 := v.Define("K", "On")
	k2 := v.Define("K", "Off")
	if k1 == k2 {
		t.Fatal("different symbols must get different ids")
	}
	if again := v.Define("K", "On"); again != k1 {
		t.Fatal("re-definition must return the existing id")
	}
	if v.Size() != 2 {
		t.Fatalf("Size = %d, want 2", v.Size())
	}
	if id, ok := v.Lookup("K", "On"); !ok || id != k1 {
		t.Fatal("Lookup failed")
	}
	if _, ok := v.Lookup("K", "Broken"); ok {
		t.Fatal("Lookup must miss undefined events")
	}
	if v.Name(k1) != "K=On" {
		t.Fatalf("Name = %q", v.Name(k1))
	}
	if d := v.Def(k2); d.Series != "K" || d.Symbol != "Off" {
		t.Fatalf("Def = %+v", d)
	}
}

func TestInstanceOrdering(t *testing.T) {
	a := Instance{Event: 1, Interval: temporal.NewInterval(0, 10)}
	b := Instance{Event: 0, Interval: temporal.NewInterval(0, 10)}
	c := Instance{Event: 0, Interval: temporal.NewInterval(0, 12)}
	d := Instance{Event: 0, Interval: temporal.NewInterval(5, 6)}
	if !b.Before(a) || a.Before(b) {
		t.Error("event id must break full ties")
	}
	// Same start: the longer instance (later end) comes first.
	if !c.Before(a) || a.Before(c) {
		t.Error("start ties must put the longer instance first")
	}
	if !a.Before(d) {
		t.Error("start must dominate")
	}
}

func TestSequenceIndex(t *testing.T) {
	s := NewSequence(0, temporal.NewInterval(0, 100), []Instance{
		{Event: 2, Interval: temporal.NewInterval(50, 60)},
		{Event: 1, Interval: temporal.NewInterval(0, 10)},
		{Event: 2, Interval: temporal.NewInterval(5, 20)},
	})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Sorted chronologically.
	if s.Instances[0].Event != 1 || s.Instances[1].Event != 2 || s.Instances[2].Start != 50 {
		t.Fatalf("instances not sorted: %v", s.Instances)
	}
	if got := s.InstancesOf(2); len(got) != 2 || s.Instances[got[0]].Start != 5 || s.Instances[got[1]].Start != 50 {
		t.Fatalf("InstancesOf(2) = %v", got)
	}
	if !s.Has(1) || s.Has(9) {
		t.Error("Has wrong")
	}
}

// TestSequenceIndexMatchesScan checks the per-event index against a plain
// scan of the sorted instances on random sequences — empty, single
// instance, tied start times, sparse high event ids — including the
// shallow copies ShardRoundRobin and MergeShards make.
func TestSequenceIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const maxID = 300
	vocab := NewVocab()
	for id := 0; id <= maxID; id++ {
		vocab.Define(fmt.Sprint("S", id), "x")
	}
	db := &DB{Vocab: vocab}
	for i := 0; i < 60; i++ {
		n := rng.Intn(40)
		switch i {
		case 0:
			n = 0
		case 1:
			n = 1
		}
		// Sparse ids: a few distinct events drawn from the whole range,
		// high ones included; small start ranges force ties.
		pool := make([]EventID, 1+rng.Intn(5))
		for j := range pool {
			pool[j] = EventID(rng.Intn(maxID + 1))
		}
		if i == 2 {
			pool = []EventID{maxID}
		}
		ins := make([]Instance, n)
		for j := range ins {
			start := temporal.Time(rng.Intn(1 + n/4))
			ins[j] = Instance{Event: pool[rng.Intn(len(pool))], Interval: temporal.NewInterval(start, start+1+temporal.Time(rng.Intn(5)))}
		}
		db.Sequences = append(db.Sequences, NewSequence(i, temporal.NewInterval(0, 100), ins))
	}

	check := func(where string, s *Sequence) {
		t.Helper()
		top := EventID(-1)
		for i, in := range s.Instances {
			if i > 0 && in.Before(s.Instances[i-1]) {
				t.Fatalf("%s seq %d: instances not chronological at %d", where, s.ID, i)
			}
			if in.Event > top {
				top = in.Event
			}
		}
		var wantEvents []EventID
		for e := EventID(0); e <= top+2; e++ {
			var want []int32
			for i, in := range s.Instances {
				if in.Event == e {
					want = append(want, int32(i))
				}
			}
			got := s.InstancesOf(e)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s seq %d: InstancesOf(%d) = %v, want %v", where, s.ID, e, got, want)
			}
			if s.Has(e) != (len(want) > 0) {
				t.Fatalf("%s seq %d: Has(%d) = %v", where, s.ID, e, s.Has(e))
			}
			if len(want) > 0 {
				wantEvents = append(wantEvents, e)
			}
		}
		if got := s.Events(); fmt.Sprint(got) != fmt.Sprint(wantEvents) {
			t.Fatalf("%s seq %d: Events = %v, want %v", where, s.ID, got, wantEvents)
		}
	}
	for _, s := range db.Sequences {
		check("built", s)
	}

	perEvent := make(map[EventID]int)
	total := 0
	for _, s := range db.Sequences {
		total += s.Len()
		for _, in := range s.Instances {
			perEvent[in.Event]++
		}
	}
	maxPer := 0
	for _, n := range perEvent {
		if n > maxPer {
			maxPer = n
		}
	}
	if st := db.Stats(); st.TotalInstances != total || st.MaxInstancesPerEvent != maxPer {
		t.Fatalf("Stats = %+v, want total %d, max per event %d", st, total, maxPer)
	}

	shards, err := db.ShardRoundRobin(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		for _, s := range sh.Sequences {
			check("sharded", s)
		}
	}
	merged, _, err := MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range merged.Sequences {
		check("merged", s)
	}
}

func tinyDB(t *testing.T) *timeseries.SymbolicDB {
	t.Helper()
	a, _ := timeseries.ParseSymbols("A", 0, 10, []string{"Off", "On"}, "On On Off Off On On Off Off")
	b, _ := timeseries.ParseSymbols("B", 0, 10, []string{"Off", "On"}, "Off On On Off Off On On Off")
	db, err := timeseries.NewSymbolicDB(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestConvertNoOverlap(t *testing.T) {
	db := tinyDB(t)
	seq, err := Convert(db, SplitOptions{NumWindows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Size() != 2 {
		t.Fatalf("sequences = %d, want 2", seq.Size())
	}
	// Window 1 covers [0,40): A has runs On[0,20) Off[20,40); B has
	// Off[0,10) On[10,30) Off[30,40).
	s1 := seq.Sequences[0]
	if s1.Window != temporal.NewInterval(0, 40) {
		t.Fatalf("window 1 = %v", s1.Window)
	}
	if s1.Len() != 5 {
		t.Fatalf("window 1 instances = %d, want 5", s1.Len())
	}
	aOn, ok := seq.Vocab.Lookup("A", "On")
	if !ok {
		t.Fatal("A=On not defined")
	}
	got := s1.InstancesOf(aOn)
	if len(got) != 1 || s1.Instances[got[0]].Interval != temporal.NewInterval(0, 20) {
		t.Fatalf("A=On instances in w1: %v", got)
	}
	// The run crossing the boundary is clipped into both windows.
	s2 := seq.Sequences[1]
	bOn, _ := seq.Vocab.Lookup("B", "On")
	w2b := s2.InstancesOf(bOn)
	if len(w2b) != 1 || s2.Instances[w2b[0]].Interval != temporal.NewInterval(50, 70) {
		t.Fatalf("B=On in w2: %v", w2b)
	}
}

func TestConvertOverlap(t *testing.T) {
	db := tinyDB(t)
	seq, err := Convert(db, SplitOptions{WindowLength: 40, Overlap: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Windows: [0,40) [20,60) [40,80): stride 20.
	if seq.Size() != 3 {
		t.Fatalf("sequences = %d, want 3", seq.Size())
	}
	wantWindows := []temporal.Interval{{Start: 0, End: 40}, {Start: 20, End: 60}, {Start: 40, End: 80}}
	for i, w := range wantWindows {
		if seq.Sequences[i].Window != w {
			t.Errorf("window %d = %v, want %v", i, seq.Sequences[i].Window, w)
		}
	}
	// A's second On run [40,60) appears complete in windows 2 and 3.
	aOn, _ := seq.Vocab.Lookup("A", "On")
	for _, i := range []int{1, 2} {
		s := seq.Sequences[i]
		found := false
		for _, idx := range s.InstancesOf(aOn) {
			if s.Instances[idx].Interval == temporal.NewInterval(40, 60) {
				found = true
			}
		}
		if !found {
			t.Errorf("window %d misses A=On [40,60)", i)
		}
	}
}

func TestConvertOptionValidation(t *testing.T) {
	db := tinyDB(t)
	if _, err := Convert(db, SplitOptions{}); err == nil {
		t.Error("missing window spec must error")
	}
	if _, err := Convert(db, SplitOptions{WindowLength: 40, NumWindows: 2}); err == nil {
		t.Error("both window specs must error")
	}
	if _, err := Convert(db, SplitOptions{WindowLength: 40, Overlap: 40}); err == nil {
		t.Error("overlap >= window must error")
	}
	if _, err := Convert(db, SplitOptions{WindowLength: 40, Overlap: -1}); err == nil {
		t.Error("negative overlap must error")
	}
	if _, err := Convert(db, SplitOptions{NumWindows: 1000}); err == nil {
		t.Error("empty windows must error")
	}
}

func TestStats(t *testing.T) {
	db := tinyDB(t)
	seq, _ := Convert(db, SplitOptions{NumWindows: 2})
	st := seq.Stats()
	if st.NumSequences != 2 || st.NumVariables != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.NumDistinctEvents != 4 {
		t.Errorf("distinct events = %d, want 4", st.NumDistinctEvents)
	}
	if st.TotalInstances != 10 || st.AvgInstancesPerSeq != 5 {
		t.Errorf("instance stats wrong: %+v", st)
	}
	if st.MaxInstancesPerEvent == 0 {
		t.Error("max instances per event must be positive")
	}
}
