package server

import (
	"fmt"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// Pagination tests: the unified limit/page_token contract on
// /v1/datasets, /v1/jobs and /v1/jobs/{id}/patterns, including cursor
// stability while the collection grows mid-walk.

// TestDatasetPaginationStableAcrossUploads walks the dataset list two at
// a time while new datasets arrive mid-walk: an already-issued token must
// neither skip nor duplicate anything, and the new arrivals (inserted
// after the cursor) appear on later pages.
func TestDatasetPaginationStableAcrossUploads(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	for i := 0; i < 5; i++ {
		uploadCSV(t, ts.URL, fmt.Sprintf("name=d%d&threshold=0.5", i), smallCSV())
	}

	var page datasetsPage
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets?limit=2", nil, &page); code != http.StatusOK {
		t.Fatalf("first page: status %d", code)
	}
	if len(page.Datasets) != 2 || page.NextPageToken == "" {
		t.Fatalf("first page = %d datasets, token %q", len(page.Datasets), page.NextPageToken)
	}
	collected := append([]DatasetInfo(nil), page.Datasets...)

	// The collection grows between pages; the in-flight cursor must not
	// care.
	uploadCSV(t, ts.URL, "name=late1&threshold=0.5", smallCSV())
	uploadCSV(t, ts.URL, "name=late2&threshold=0.5", smallCSV())

	for token := page.NextPageToken; token != ""; {
		var next datasetsPage
		url := ts.URL + "/v1/datasets?limit=2&page_token=" + token
		if code := doJSON(t, http.MethodGet, url, nil, &next); code != http.StatusOK {
			t.Fatalf("page at %q: status %d", token, code)
		}
		collected = append(collected, next.Datasets...)
		token = next.NextPageToken
	}

	if len(collected) != 7 {
		t.Fatalf("walk collected %d datasets, want all 7", len(collected))
	}
	seen := map[string]bool{}
	for i, d := range collected {
		if seen[d.ID] {
			t.Fatalf("dataset %s delivered twice", d.ID)
		}
		seen[d.ID] = true
		if want := "ds-" + strconv.Itoa(i+1); d.ID != want {
			t.Fatalf("collected[%d] = %s, want %s (insertion order)", i, d.ID, want)
		}
	}
}

func TestJobsPagination(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	info := uploadCSV(t, ts.URL, "name=energy&threshold=0.5", smallCSV())
	for i := 0; i < 5; i++ {
		// Vary the request so the result cache does not collapse the runs
		// into one job id — each submit must create a distinct job.
		job := submitJob(t, ts.URL, MiningRequest{
			DatasetID: info.ID, MinSupport: 0.2, MinConfidence: 0,
			NumWindows: 2, MaxPatternSize: 2 + i%2,
		})
		waitState(t, ts.URL, job.ID, 30*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
	}

	var ids []string
	token := ""
	pages := 0
	for {
		url := ts.URL + "/v1/jobs?limit=2"
		if token != "" {
			url += "&page_token=" + token
		}
		var page jobsPage
		if code := doJSON(t, http.MethodGet, url, nil, &page); code != http.StatusOK {
			t.Fatalf("jobs page: status %d", code)
		}
		if len(page.Jobs) > 2 {
			t.Fatalf("page of %d jobs exceeds limit 2", len(page.Jobs))
		}
		for _, j := range page.Jobs {
			ids = append(ids, j.ID)
		}
		pages++
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	if len(ids) != 5 || pages != 3 {
		t.Fatalf("walk = %d jobs over %d pages, want 5 over 3", len(ids), pages)
	}
	for i, id := range ids {
		if want := "job-" + strconv.Itoa(i+1); id != want {
			t.Fatalf("ids[%d] = %s, want %s (insertion order)", i, id, want)
		}
	}
}

// TestUnversionedListsNotFound: the paged lists are served under /v1
// only. The same list request, paging parameters included, answers a
// page under /v1 and the not_found envelope without the prefix.
func TestUnversionedListsNotFound(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	ds := uploadCSV(t, ts.URL, "name=energy&threshold=0.5", smallCSV())
	mineDone(t, ts.URL, MiningRequest{DatasetID: ds.ID, MinSupport: 0.5, NumWindows: 2, MaxPatternSize: 2})
	for _, path := range []string{"/datasets?limit=1", "/jobs?limit=1"} {
		var page struct {
			Datasets []DatasetInfo `json:"datasets"`
			Jobs     []JobInfo     `json:"jobs"`
		}
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1"+path, nil, &page); code != http.StatusOK {
			t.Fatalf("GET /v1%s: status %d", path, code)
		}
		if len(page.Datasets)+len(page.Jobs) != 1 {
			t.Fatalf("GET /v1%s = %+v, want one entry", path, page)
		}
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		assertEnvelope(t, resp, http.StatusNotFound, codeNotFound, "no such route")
		resp.Body.Close()
	}
}

func TestBadPageParams(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	info := uploadCSV(t, ts.URL, "name=energy&threshold=0.5", smallCSV())
	done := mineDone(t, ts.URL, MiningRequest{
		DatasetID: info.ID, MinSupport: 0.2, MinConfidence: 0,
		NumWindows: 2, MaxPatternSize: 2,
	})

	cases := []struct {
		name string
		url  string
	}{
		{"garbage token", "/v1/datasets?page_token=%25%25"},
		{"non-base64 token", "/v1/datasets?page_token=not_a_token!"},
		{"offset token on a list", "/v1/datasets?page_token=" + encodeOffsetToken(2)},
		{"foreign-namespace token", "/v1/jobs?page_token=" + encodeAfterToken("ds-1")},
		{"list token on patterns", "/v1/jobs/" + done.ID + "/patterns?page_token=" + encodeAfterToken("job-1")},
		{"zero limit", "/v1/datasets?limit=0"},
		{"negative limit", "/v1/jobs?limit=-3"},
		{"oversized limit", "/v1/datasets?limit=" + strconv.Itoa(maxPageLimit+1)},
		{"non-numeric limit", "/v1/jobs?limit=ten"},
	}
	for _, c := range cases {
		var apiErr apiError
		code := doJSON(t, http.MethodGet, ts.URL+c.url, nil, &apiErr)
		if code != http.StatusBadRequest || apiErr.Error.Code != codeInvalidArgument {
			t.Errorf("%s: status %d code %q, want 400 %q", c.name, code, apiErr.Error.Code, codeInvalidArgument)
		}
	}
}

// TestPatternsPageTokenTiling pages a done job's patterns by
// next_page_token and checks the pages tile the full set exactly; the
// token also wins over an explicit offset parameter.
func TestPatternsPageTokenTiling(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	info := uploadCSV(t, ts.URL, "name=energy&threshold=0.5", smallCSV())
	done := mineDone(t, ts.URL, MiningRequest{
		DatasetID: info.ID, MinSupport: 0.1, MinConfidence: 0,
		NumWindows: 4, MaxPatternSize: 3,
	})
	if done.Summary.Patterns < 3 {
		t.Fatalf("mine found %d patterns, need at least 3 to exercise paging", done.Summary.Patterns)
	}

	var collected int
	token := ""
	for {
		url := ts.URL + "/v1/jobs/" + done.ID + "/patterns?limit=2"
		if token != "" {
			url += "&page_token=" + token
		}
		var page patternsPage
		if code := doJSON(t, http.MethodGet, url, nil, &page); code != http.StatusOK {
			t.Fatalf("patterns page: status %d", code)
		}
		if page.Total != done.Summary.Patterns {
			t.Fatalf("page total = %d, want %d", page.Total, done.Summary.Patterns)
		}
		if page.Offset != collected {
			t.Fatalf("page offset = %d, want %d (tokens must tile)", page.Offset, collected)
		}
		collected += len(page.Patterns)
		if page.NextPageToken == "" {
			if page.NextOffset != nil {
				t.Fatal("next_offset set without next_page_token")
			}
			break
		}
		if len(page.Patterns) != 2 {
			t.Fatalf("non-final page of %d patterns, want the full limit 2", len(page.Patterns))
		}
		token = page.NextPageToken
	}
	if collected != done.Summary.Patterns {
		t.Fatalf("token walk delivered %d patterns, want %d", collected, done.Summary.Patterns)
	}

	// page_token wins over offset when both are sent.
	var page patternsPage
	url := ts.URL + "/v1/jobs/" + done.ID + "/patterns?offset=0&page_token=" + encodeOffsetToken(2)
	if code := doJSON(t, http.MethodGet, url, nil, &page); code != http.StatusOK {
		t.Fatalf("token+offset page: status %d", code)
	}
	if page.Offset != 2 {
		t.Fatalf("page offset = %d, want the token's 2 over the query's 0", page.Offset)
	}
}
