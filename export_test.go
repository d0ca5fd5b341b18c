package ftpm_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ftpm"
)

func TestExportJSON(t *testing.T) {
	db := tableIDB(t)
	res, err := ftpm.MineSymbolic(context.Background(), db, ftpm.Options{
		MinSupport: 0.7, MinConfidence: 0.7, NumWindows: 4, MaxPatternSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc ftpm.ResultJSON
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Sequences != 4 || doc.AbsoluteSupport != 3 {
		t.Errorf("header wrong: %+v", doc)
	}
	if len(doc.Singles) != 11 {
		t.Errorf("singles = %d, want 11", len(doc.Singles))
	}
	if len(doc.Patterns) != len(res.Patterns) {
		t.Errorf("patterns = %d, want %d", len(doc.Patterns), len(res.Patterns))
	}
	for _, p := range doc.Patterns {
		if p.K != len(p.Events) {
			t.Errorf("k=%d but %d events", p.K, len(p.Events))
		}
		if len(p.Triples) != p.K*(p.K-1)/2 {
			t.Errorf("triple count wrong for k=%d: %d", p.K, len(p.Triples))
		}
		for _, tr := range p.Triples {
			switch tr.Relation {
			case "follow", "contain", "overlap":
			default:
				t.Errorf("bad relation name %q", tr.Relation)
			}
			if !strings.Contains(tr.A, "=") || !strings.Contains(tr.B, "=") {
				t.Errorf("events must be name-resolved: %+v", tr)
			}
		}
		if len(p.Sample) != p.K {
			t.Errorf("sample must cover all roles, got %d of %d", len(p.Sample), p.K)
		}
		for _, iv := range p.Sample {
			if iv.End < iv.Start {
				t.Errorf("sample interval inverted: %+v", iv)
			}
		}
	}
}

func TestExportJSONApproxCarriesMu(t *testing.T) {
	db := tableIDB(t)
	res, err := ftpm.MineSymbolic(context.Background(), db, ftpm.Options{
		MinSupport: 0.7, MinConfidence: 0.7, NumWindows: 4,
		Approx: &ftpm.ApproxOptions{Density: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Document()
	if doc.Mu <= 0 {
		t.Errorf("µ missing from export: %v", doc.Mu)
	}
}

func TestExportJSONRequiresDB(t *testing.T) {
	r := &ftpm.Result{}
	if err := r.ExportJSON(&bytes.Buffer{}); err == nil {
		t.Error("export without a database must error")
	}
}

// wideVocabularyDB builds a database of 268 events. 85 filler series
// cycle through three symbols, two windows each, so their 255 events take
// ids 0..254 and none is frequent. Six busy series follow, whose On/Off
// runs of one to four samples give ids 255..266 and the mined patterns:
// there the little-endian key bytes that order the listing and the
// numeric event ids disagree (256 sorts before 255).
func wideVocabularyDB(t *testing.T) *ftpm.SymbolicDB {
	t.Helper()
	const windows, perWindow = 6, 12
	var series []*ftpm.SymbolicSeries
	add := func(name string, alphabet, row []string) {
		s, err := ftpm.ParseSymbols(name, 0, 60, alphabet, strings.Join(row, " "))
		if err != nil {
			t.Fatal(err)
		}
		series = append(series, s)
	}
	row := make([]string, windows*perWindow)
	for i := 0; i < 85; i++ {
		for j := range row {
			row[j] = []string{"X", "Y", "Z"}[j/(2*perWindow)]
		}
		add(fmt.Sprintf("f%03d", i), []string{"X", "Y", "Z"}, row)
	}
	seed := uint32(7)
	for i := 0; i < 6; i++ {
		sym := i % 2
		for j := 0; j < len(row); {
			seed = seed*1664525 + 1013904223
			for n := 1 + int(seed>>30); n > 0 && j < len(row); n-- {
				row[j] = []string{"Off", "On"}[sym]
				j++
			}
			sym = 1 - sym
		}
		add(fmt.Sprintf("h%d", i), []string{"Off", "On"}, row)
	}
	db, err := ftpm.NewSymbolicDB(series...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExportJSONWideVocabulary pins the result document of a vocabulary
// wider than one byte of event id, byte for byte: the listing orders
// patterns by the little-endian bytes of their events, not by id.
func TestExportJSONWideVocabulary(t *testing.T) {
	res, err := ftpm.MineSymbolic(context.Background(), wideVocabularyDB(t), ftpm.Options{
		MinSupport: 0.5, MinConfidence: 0.5, NumWindows: 6, MaxPatternSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.DB.Vocab.Size(); n <= 256 {
		t.Fatalf("vocabulary of %d events, want more than 256", n)
	}
	var below, above bool
	for _, p := range res.Patterns {
		below = below || p.Pattern.Events[0] < 256
		above = above || p.Pattern.Events[0] >= 256
	}
	if !below || !above {
		t.Fatalf("%d patterns must start with events on both sides of id 256", len(res.Patterns))
	}
	var buf bytes.Buffer
	if err := res.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "5a3bbb0cc49db4ccb9d86335f89409aebecd8f8ad376c166885bda2a0f510efe"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("document of %d patterns (%d bytes) has sha256 %s, want %s", len(res.Patterns), buf.Len(), got, want)
	}
}
