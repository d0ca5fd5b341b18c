package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"

	"ftpm"
	"ftpm/internal/csvio"
)

// The off-clock checks recompute selected results in-process with the
// library's own entry points, ftpm.Prepare and Prepared.Mine, from the same
// bytes the server received, and require the server's /result document to
// equal the recomputation once both are decoded into ftpm.ResultJSON.

// recompute mines sdb in-process with the options of req.
func recompute(sdb *ftpm.SymbolicDB, split ftpm.SplitOptions, shards int, req jobRequest) (*ftpm.ResultJSON, error) {
	prep, err := ftpm.Prepare(sdb, split, shards)
	if err != nil {
		return nil, err
	}
	opt := ftpm.Options{MinSupport: req.MinSupport, MinConfidence: req.MinConfidence, MaxPatternSize: req.MaxPatternSize}
	if req.Approx != nil {
		opt.Approx = &ftpm.ApproxOptions{Density: req.Approx.Density}
	}
	res, err := prep.Mine(context.Background(), opt)
	if err != nil {
		return nil, err
	}
	// A JSON round trip puts the recomputation in the decoded form the
	// server's document takes (nil versus empty slices, float text).
	data, err := json.Marshal(res.Document())
	if err != nil {
		return nil, err
	}
	var doc ftpm.ResultJSON
	return &doc, json.Unmarshal(data, &doc)
}

// sameDocument compares a server /result body with a recomputation.
func sameDocument(body []byte, want *ftpm.ResultJSON) error {
	var got ftpm.ResultJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("server result: %w", err)
	}
	if !reflect.DeepEqual(&got, want) {
		return fmt.Errorf("server result (%d patterns) differs from the in-process recomputation (%d patterns)",
			len(got.Patterns), len(want.Patterns))
	}
	return nil
}

// symbolicDB parses a symbolic CSV upload as the server does.
func symbolicDB(body []byte) (*ftpm.SymbolicDB, error) {
	return csvio.ReadSymbolic(bytes.NewReader(body))
}

// numericDB parses and symbolizes a numeric CSV upload as the server does.
func numericDB(body []byte) (*ftpm.SymbolicDB, error) {
	series, err := csvio.ReadNumeric(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return ftpm.Symbolize(series, func(string) ftpm.Symbolizer { return ftpm.OnOff(threshold) })
}

// checkPages requires the pages of one job to carry its id and to
// concatenate to want, the patterns of its /result document.
func checkPages(pages [][]byte, jobID string, want []ftpm.PatternJSON) error {
	var got []ftpm.PatternJSON
	for i, data := range pages {
		var page struct {
			JobID    string             `json:"job_id"`
			Total    int                `json:"total"`
			Patterns []ftpm.PatternJSON `json:"patterns"`
		}
		if err := json.Unmarshal(data, &page); err != nil {
			return fmt.Errorf("page %d: %w", i, err)
		}
		if page.JobID != jobID || page.Total != len(want) {
			return fmt.Errorf("page %d: job %q total %d, want job %q total %d", i, page.JobID, page.Total, jobID, len(want))
		}
		got = append(got, page.Patterns...)
	}
	if len(got) == 0 && len(want) == 0 {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%d paged patterns differ from the %d of /result", len(got), len(want))
	}
	return nil
}

// pageBody returns a page's bytes after its job_id line: the part that is
// identical across jobs serving the same document. A page that does not
// open with the job's id in the server's indented layout is an error.
func pageBody(page []byte, jobID string) ([]byte, error) {
	prefix := fmt.Appendf(nil, "{\n  \"job_id\": %q,\n", jobID)
	if !bytes.HasPrefix(page, prefix) {
		return nil, fmt.Errorf("page does not open with %q", prefix)
	}
	return page[len(prefix):], nil
}
