package core

import (
	"context"
	"slices"
	"testing"

	"ftpm/internal/datagen"
	"ftpm/internal/events"
	"ftpm/internal/paperex"
	"ftpm/internal/temporal"
)

// levelCounts is one level's pruning counters in LevelStats field order:
// Candidates, PrunedApriori, PrunedTrans, NodesVerified, GreenNodes,
// Patterns, Occurrences, TripleChecksFailed.
type levelCounts [8]int

func countsOf(ls LevelStats) levelCounts {
	return levelCounts{ls.Candidates, ls.PrunedApriori, ls.PrunedTrans, ls.NodesVerified,
		ls.GreenNodes, ls.Patterns, ls.Occurrences, ls.TripleChecksFailed}
}

// TestLevelCountersPinned pins every per-level pruning counter to literal
// values: the pruning scoreboard (Figs 6-7) reads these counters, so a
// change to how candidates and triples are checked must not move any of
// them — not even TripleChecksFailed, which depends on the order the
// triples of an extension are checked in. Every pruning mode runs
// serially and on three workers.
func TestLevelCountersPinned(t *testing.T) {
	p, err := datagen.ByName("NIST")
	if err != nil {
		t.Fatal(err)
	}
	nist, _, err := p.Build(datagen.Options{SequenceFraction: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// The sweep-exact benchmark's input: 36 of NIST's series over 73
	// one-day windows, mined at its lowest-support, lowest-confidence cell.
	sweepSrc, err := datagen.NIST().Generate(datagen.Options{SequenceFraction: 0.05, AttributeFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := events.Convert(sweepSrc, events.SplitOptions{NumWindows: 73})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		db   *events.DB
		cfg  Config
		want map[PruningMode][]levelCounts
	}{
		{
			// BenchmarkExtendVerification's input.
			name: "NIST",
			db:   nist,
			cfg:  Config{MinSupport: 0.6, MinConfidence: 0.6, MaxK: 4},
			want: map[PruningMode][]levelCounts{
				PruneAll: {{144, 0, 0, 144, 96, 0, 0, 0}, {4656, 240, 0, 4416, 3402, 3475, 51408, 0},
					{110064, 5635, 6873, 97556, 7513, 7573, 101060, 1478963}, {190370, 12070, 2596, 175704, 3612, 3626, 0, 2381394}},
				PruneApriori: {{144, 0, 0, 144, 96, 0, 0, 0}, {4656, 240, 0, 4416, 3402, 3475, 51408, 0},
					{110064, 8028, 0, 102036, 7513, 7573, 101060, 0}, {190370, 13306, 0, 177064, 3612, 3626, 0, 0}},
				PruneTrans: {{144, 0, 0, 144, 96, 0, 0, 0}, {4656, 0, 0, 4656, 3402, 3475, 51408, 0},
					{110064, 0, 6873, 103191, 7513, 7573, 101060, 1547871}, {190370, 0, 2596, 187774, 3612, 3626, 0, 2518074}},
				PruneNone: {{144, 0, 0, 144, 96, 0, 0, 0}, {4656, 0, 0, 4656, 3402, 3475, 51408, 0},
					{110064, 0, 0, 110064, 7513, 7573, 101060, 0}, {190370, 0, 0, 190370, 3612, 3626, 0, 0}},
			},
		},
		{
			// d_o > 2ε+1, so two instances can overlap by too little for
			// any relation and Classify returns None. NIST's times lie on
			// an 1800 s grid, so d_o must exceed one step for that to
			// happen.
			name: "NIST-do2h",
			db:   nist,
			cfg:  Config{MinSupport: 0.6, MinConfidence: 0.6, MaxK: 3, Relations: temporal.Config{Epsilon: 0, MinOverlap: 7200}},
			want: map[PruningMode][]levelCounts{
				PruneAll:     {{144, 0, 0, 144, 96, 0, 0, 0}, {4656, 240, 0, 4416, 3402, 3475, 51408, 0}, {110064, 5635, 6873, 97556, 7513, 7573, 0, 1423453}},
				PruneApriori: {{144, 0, 0, 144, 96, 0, 0, 0}, {4656, 240, 0, 4416, 3402, 3475, 51408, 0}, {110064, 8028, 0, 102036, 7513, 7573, 0, 0}},
				PruneTrans:   {{144, 0, 0, 144, 96, 0, 0, 0}, {4656, 0, 0, 4656, 3402, 3475, 51408, 0}, {110064, 0, 6873, 103191, 7513, 7573, 0, 1489338}},
				PruneNone:    {{144, 0, 0, 144, 96, 0, 0, 0}, {4656, 0, 0, 4656, 3402, 3475, 51408, 0}, {110064, 0, 0, 110064, 7513, 7573, 0, 0}},
			},
		},
		{
			// t_max one step short of NIST's one-day window: the span
			// check runs before the triple checks of an extension.
			name: "NIST-tmax",
			db:   nist,
			cfg:  Config{MinSupport: 0.6, MinConfidence: 0.6, MaxK: 3, TMax: 47 * 1800},
			want: map[PruningMode][]levelCounts{
				PruneAll:     {{144, 0, 0, 144, 96, 0, 0, 0}, {4656, 240, 0, 4416, 24, 33, 436, 0}, {270, 0, 223, 47, 0, 0, 0, 632}},
				PruneApriori: {{144, 0, 0, 144, 96, 0, 0, 0}, {4656, 240, 0, 4416, 24, 33, 436, 0}, {1076, 122, 0, 954, 0, 0, 0, 0}},
				PruneTrans:   {{144, 0, 0, 144, 96, 0, 0, 0}, {4656, 0, 0, 4656, 24, 33, 436, 0}, {270, 0, 223, 47, 0, 0, 0, 632}},
				PruneNone:    {{144, 0, 0, 144, 96, 0, 0, 0}, {4656, 0, 0, 4656, 24, 33, 436, 0}, {1076, 0, 0, 1076, 0, 0, 0, 0}},
			},
		},
		{
			// BenchmarkMineSweep's lowest cell.
			name: "sweep",
			db:   sweep,
			cfg:  Config{MinSupport: 0.65, MinConfidence: 0.5, MaxK: 3},
			want: map[PruningMode][]levelCounts{
				PruneAll:     {{72, 0, 0, 72, 36, 0, 0, 0}, {666, 0, 0, 666, 390, 390, 30427, 0}, {5259, 0, 1088, 4171, 60, 60, 0, 371707}},
				PruneApriori: {{72, 0, 0, 72, 36, 0, 0, 0}, {666, 0, 0, 666, 390, 390, 30427, 0}, {5259, 0, 0, 5259, 60, 60, 0, 0}},
				PruneTrans:   {{72, 0, 0, 72, 36, 0, 0, 0}, {666, 0, 0, 666, 390, 390, 30427, 0}, {5259, 0, 1088, 4171, 60, 60, 0, 371707}},
				PruneNone:    {{72, 0, 0, 72, 36, 0, 0, 0}, {666, 0, 0, 666, 390, 390, 30427, 0}, {5259, 0, 0, 5259, 60, 60, 0, 0}},
			},
		},
		{
			name: "paper",
			db:   paperex.SequenceDB(),
			cfg:  Config{MinSupport: 0.7, MinConfidence: 0.7},
			want: map[PruningMode][]levelCounts{
				PruneAll: {{12, 0, 0, 12, 11, 0, 0, 0}, {66, 0, 0, 66, 50, 82, 427, 0}, {245, 0, 42, 203, 112, 204, 847, 903},
					{403, 0, 0, 403, 121, 189, 678, 1776}, {431, 0, 0, 431, 76, 92, 305, 1508}, {198, 0, 0, 198, 24, 25, 79, 438},
					{35, 0, 0, 35, 3, 3, 9, 71}, {4, 0, 0, 4, 0, 0, 0, 9}},
				PruneApriori: {{12, 0, 0, 12, 11, 0, 0, 0}, {66, 0, 0, 66, 50, 82, 427, 0}, {245, 0, 0, 245, 112, 204, 847, 0},
					{515, 0, 0, 515, 121, 189, 678, 0}, {552, 0, 0, 552, 76, 92, 305, 0}, {349, 0, 0, 349, 24, 25, 79, 0},
					{107, 0, 0, 107, 3, 3, 9, 0}, {13, 0, 0, 13, 0, 0, 0, 0}},
				PruneTrans: {{12, 0, 0, 12, 11, 0, 0, 0}, {66, 0, 0, 66, 50, 82, 427, 0}, {245, 0, 42, 203, 112, 204, 847, 903},
					{403, 0, 0, 403, 121, 189, 678, 1776}, {431, 0, 0, 431, 76, 92, 305, 1508}, {198, 0, 0, 198, 24, 25, 79, 438},
					{35, 0, 0, 35, 3, 3, 9, 71}, {4, 0, 0, 4, 0, 0, 0, 9}},
				PruneNone: {{12, 0, 0, 12, 11, 0, 0, 0}, {66, 0, 0, 66, 50, 82, 427, 0}, {245, 0, 0, 245, 112, 204, 847, 0},
					{515, 0, 0, 515, 121, 189, 678, 0}, {552, 0, 0, 552, 76, 92, 305, 0}, {349, 0, 0, 349, 24, 25, 79, 0},
					{107, 0, 0, 107, 3, 3, 9, 0}, {13, 0, 0, 13, 0, 0, 0, 0}},
			},
		},
	}
	for _, c := range cases {
		for _, mode := range []PruningMode{PruneAll, PruneApriori, PruneTrans, PruneNone} {
			if testing.Short() && c.name != "paper" && mode != PruneAll {
				// The default mode reads both halves of the L2 table; the
				// other modes' NIST runs take over a minute under -race.
				continue
			}
			for _, workers := range []int{0, 3} {
				cfg := c.cfg
				cfg.Pruning, cfg.Workers = mode, workers
				res, err := Mine(context.Background(), c.db, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]levelCounts, len(res.Stats.Levels))
				for i, ls := range res.Stats.Levels {
					got[i] = countsOf(ls)
				}
				if !slices.Equal(got, c.want[mode]) {
					t.Errorf("%s %v workers %d: counters\n%v\nwant\n%v", c.name, mode, workers, got, c.want[mode])
				}
			}
		}
	}
}
