package ftpm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"ftpm"
	"ftpm/internal/paperex"
)

// docBytes marshals a result's export document for byte-level comparison.
func docBytes(t *testing.T, res *ftpm.Result) []byte {
	t.Helper()
	doc := res.Document()
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPreparedMatchesMineSymbolic is the engine-equivalence property
// test: for every mining mode — exact, approx by µ, approx by density,
// event-level approx — crossed with sharded and unsharded geometries,
// mining through a (warm, reused) Prepared must be byte-identical to a
// fresh MineSymbolic run, including on repeat calls served entirely from
// the cached artifacts.
func TestPreparedMatchesMineSymbolic(t *testing.T) {
	sdb := paperex.SymbolicDB()
	ctx := context.Background()
	variants := []struct {
		name   string
		approx *ftpm.ApproxOptions
	}{
		{"exact", nil},
		{"approx-mu", &ftpm.ApproxOptions{Mu: 0.3}},
		{"approx-density", &ftpm.ApproxOptions{Density: 0.6}},
		{"event-level", &ftpm.ApproxOptions{Density: 0.6, EventLevel: true}},
	}
	for _, shards := range []int{1, 3} {
		prep, err := ftpm.Prepare(sdb, ftpm.SplitOptions{NumWindows: 4}, shards)
		if err != nil {
			t.Fatal(err)
		}
		var dseqBuilds, dseqHits, nmiBuilds, nmiHits int
		for _, v := range variants {
			opt := ftpm.Options{
				MinSupport: 0.5, MinConfidence: 0.5,
				NumWindows: 4, Shards: shards, Approx: v.approx,
			}
			want, err := ftpm.MineSymbolic(ctx, sdb, opt)
			if err != nil {
				t.Fatalf("shards=%d %s: MineSymbolic: %v", shards, v.name, err)
			}
			if len(want.Patterns) == 0 {
				t.Fatalf("shards=%d %s: vacuous comparison, no patterns mined", shards, v.name)
			}
			wantDoc := docBytes(t, want)
			for round := 0; round < 2; round++ { // cold handle, then warm
				got, err := prep.Mine(ctx, opt)
				if err != nil {
					t.Fatalf("shards=%d %s round %d: Prepared.Mine: %v", shards, v.name, round, err)
				}
				if gotDoc := docBytes(t, got); !bytes.Equal(gotDoc, wantDoc) {
					t.Fatalf("shards=%d %s round %d: Prepared.Mine diverges from MineSymbolic:\n%s\nvs\n%s",
						shards, v.name, round, gotDoc, wantDoc)
				}
				if got.Mu != want.Mu {
					t.Fatalf("shards=%d %s round %d: mu %v != %v", shards, v.name, round, got.Mu, want.Mu)
				}
				if got.Cache.DSEQ {
					dseqHits++
				} else {
					dseqBuilds++
				}
				if v.approx == nil {
					continue
				}
				if got.Cache.NMI {
					nmiHits++
				} else {
					nmiBuilds++
				}
			}
		}
		// 8 Mine calls per geometry: the conversion built once, reused 7
		// times; the series-level table serves both approx variants and
		// the event-level table its own, each built once.
		if dseqBuilds != 1 || dseqHits != 7 {
			t.Fatalf("shards=%d: DSEQ %d builds + %d hits, want 1 build + 7 hits", shards, dseqBuilds, dseqHits)
		}
		if nmiBuilds != 2 || nmiHits != 4 {
			t.Fatalf("shards=%d: NMI %d builds + %d hits, want 2 builds + 4 hits", shards, nmiBuilds, nmiHits)

		}
	}
}

// TestPreparedArtifactReuse pins the per-run CacheInfo reporting.
func TestPreparedArtifactReuse(t *testing.T) {
	sdb := paperex.SymbolicDB()
	ctx := context.Background()
	prep, err := ftpm.Prepare(sdb, ftpm.SplitOptions{NumWindows: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}

	opt := ftpm.Options{MinSupport: 0.5, MinConfidence: 0.5, Approx: &ftpm.ApproxOptions{Density: 0.6}}
	first, err := prep.Mine(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache.DSEQ || first.Cache.NMI {
		t.Fatalf("first run reports cache reuse: %+v", first.Cache)
	}
	if len(first.Stats.ShardSequences) != 2 {
		t.Fatalf("sharded run stats = %v, want 2 shards", first.Stats.ShardSequences)
	}

	// A different threshold reuses both artifacts.
	opt.Approx = &ftpm.ApproxOptions{Mu: 0.3}
	second, err := prep.Mine(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cache.DSEQ || !second.Cache.NMI {
		t.Fatalf("second run must reuse DSEQ and NMI: %+v", second.Cache)
	}

	// Exact runs never consult NMI.
	opt.Approx = nil
	exact, err := prep.Mine(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Cache.DSEQ || exact.Cache.NMI {
		t.Fatalf("exact run cache info = %+v, want DSEQ reuse only", exact.Cache)
	}

	// Plain MineSymbolic never reports reuse (fresh one-shot handle).
	plain, err := ftpm.MineSymbolic(ctx, sdb, ftpm.Options{
		MinSupport: 0.5, MinConfidence: 0.5, NumWindows: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cache.DSEQ || plain.Cache.NMI {
		t.Fatalf("MineSymbolic reports cache reuse: %+v", plain.Cache)
	}
}

// TestAnalysisSharedAcrossGeometries pins that the NMI tables are
// geometry-independent: handles prepared over different window splits
// and shard widths of one database share one Analysis, so only the
// first approximate run anywhere pays the pairwise computation.
func TestAnalysisSharedAcrossGeometries(t *testing.T) {
	sdb := paperex.SymbolicDB()
	an := ftpm.NewAnalysis(sdb)
	p1, err := ftpm.PrepareWith(an, ftpm.SplitOptions{NumWindows: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ftpm.PrepareWith(an, ftpm.SplitOptions{NumWindows: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// MaxPatternSize bounds the levels: the two-window geometry has long
	// sequences and the test is about artifact sharing, not deep mining.
	opt := ftpm.Options{
		MinSupport: 0.5, MinConfidence: 0.5, MaxPatternSize: 2,
		Approx: &ftpm.ApproxOptions{Density: 0.6},
	}
	first, err := p1.Mine(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache.NMI {
		t.Fatal("first run across the analysis must build the NMI table")
	}
	second, err := p2.Mine(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cache.NMI {
		t.Fatal("sibling handle must reuse the shared NMI table")
	}
	if second.Cache.DSEQ {
		t.Fatal("sibling handle has its own geometry; the conversion must rebuild")
	}
	if _, err := ftpm.PrepareWith(nil, ftpm.SplitOptions{NumWindows: 2}, 1); err == nil {
		t.Fatal("nil analysis must be rejected")
	}
}

// TestPrepareValidation pins the eager checks of Prepare.
func TestPrepareValidation(t *testing.T) {
	sdb := paperex.SymbolicDB()
	if _, err := ftpm.Prepare(nil, ftpm.SplitOptions{NumWindows: 4}, 1); err == nil {
		t.Fatal("nil database must be rejected")
	}
	if _, err := ftpm.Prepare(sdb, ftpm.SplitOptions{}, 1); err == nil {
		t.Fatal("missing window geometry must be rejected at Prepare time")
	}
	if _, err := ftpm.Prepare(sdb, ftpm.SplitOptions{NumWindows: 4, WindowLength: 10}, 1); err == nil {
		t.Fatal("conflicting window geometry must be rejected at Prepare time")
	}
	prep, err := ftpm.Prepare(sdb, ftpm.SplitOptions{NumWindows: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Shards() != 1 {
		t.Fatalf("shards clamp: %d, want 1", prep.Shards())
	}
	// Approx still demands exactly one threshold selector.
	if _, err := prep.Mine(nil, ftpm.Options{MinSupport: 0.5, Approx: &ftpm.ApproxOptions{}}); err == nil {
		t.Fatal("empty ApproxOptions must be rejected")
	}
	if _, err := prep.Mine(nil, ftpm.Options{MinSupport: 0.5, Approx: &ftpm.ApproxOptions{Mu: 0.3, Density: 0.5}}); err == nil {
		t.Fatal("both mu and density must be rejected")
	}
	// Mine rejects options that contradict the prepared geometry instead
	// of silently mining the handle's split.
	if _, err := prep.Mine(nil, ftpm.Options{MinSupport: 0.5, NumWindows: 8}); err == nil {
		t.Fatal("conflicting window geometry must be rejected by Mine")
	}
	if _, err := prep.Mine(nil, ftpm.Options{MinSupport: 0.5, Shards: 3}); err == nil {
		t.Fatal("conflicting shard width must be rejected by Mine")
	}
	if _, err := prep.Mine(nil, ftpm.Options{MinSupport: 0.5, NumWindows: 4}); err != nil {
		t.Fatalf("matching geometry must be accepted: %v", err)
	}
	// Non-positive Shards means unset, matching MineSymbolic's historic
	// "Shards <= 1 mines unsharded" behavior.
	if _, err := prep.Mine(nil, ftpm.Options{MinSupport: 0.5, Shards: -1}); err != nil {
		t.Fatalf("negative Shards must be treated as unset: %v", err)
	}
}
