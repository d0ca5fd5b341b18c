package ftpm_test

import (
	"context"
	"reflect"
	"testing"

	"ftpm"
)

// TestDocumentSlicesDoNotAlias appends to every slice of each pattern of
// a result document and requires the next pattern to read as before:
// the patterns' events, triples and samples share one backing array each,
// so each pattern's slices must end at their own last element.
func TestDocumentSlicesDoNotAlias(t *testing.T) {
	res, err := ftpm.MineSymbolic(context.Background(), tableIDB(t), ftpm.Options{
		MinSupport: 0.7, MinConfidence: 0.7, NumWindows: 4, MaxPatternSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Document()
	if len(doc.Patterns) < 2 {
		t.Fatalf("%d patterns, want at least 2", len(doc.Patterns))
	}
	want := res.Document()
	for i := 0; i+1 < len(doc.Patterns); i++ {
		p := &doc.Patterns[i]
		if len(p.Events) == 0 || len(p.Triples) == 0 || len(p.Sample) == 0 {
			t.Fatalf("pattern %d has an empty slice: %+v", i, p)
		}
		_ = append(p.Events, "appended")
		_ = append(p.Triples, ftpm.TripleJSON{A: "x", Relation: "follow", B: "y"})
		_ = append(p.Sample, ftpm.IntervalJSON{Event: "x", Start: -1, End: -1})
		if next := doc.Patterns[i+1]; !reflect.DeepEqual(next, want.Patterns[i+1]) {
			t.Fatalf("appending to pattern %d changed pattern %d:\n got %+v\nwant %+v", i, i+1, next, want.Patterns[i+1])
		}
	}
}
