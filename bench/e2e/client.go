package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// The harness speaks ftpm-serve's /v1 wire format through these types,
// not the server's Go types: the benchmark depends on the API, not on the
// implementation behind it.

// jobRequest is the body of POST /v1/jobs.
type jobRequest struct {
	DatasetID      string          `json:"dataset_id"`
	MinSupport     float64         `json:"min_support"`
	MinConfidence  float64         `json:"min_confidence"`
	MaxPatternSize int             `json:"max_pattern_size,omitempty"`
	WindowLength   int64           `json:"window_length,omitempty"`
	NumWindows     int             `json:"num_windows,omitempty"`
	Approx         *approxSelector `json:"approx,omitempty"`
}

type approxSelector struct {
	Density float64 `json:"density"`
}

// jobInfo is the part of a job document the harness reads.
type jobInfo struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Error   string `json:"error"`
	Summary *struct {
		Patterns int `json:"patterns"`
		Workers  int `json:"workers"`
	} `json:"summary"`
}

// datasetInfo is the part of a dataset document the harness reads.
type datasetInfo struct {
	ID      string `json:"id"`
	Samples int    `json:"samples"`
}

// client is one closed-loop user on one connection: it sends its next
// request only after the previous one completed. Every call is recorded
// as a span. A client is used by one goroutine at a time.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
	// sizes holds the largest body each call name has returned, so the
	// next body is read into one buffer of that size instead of one grown
	// through copies: the client shares the server's two cores, and
	// multi-megabyte results made reading its largest cost.
	sizes map[string]int
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, tr: tr, sizes: make(map[string]int), hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call performs one request under a span and reads the whole response
// body; any status but want is an error.
func (c *client) call(name string, parent, op int, method, path string, body []byte, accept string, want int) ([]byte, error) {
	id := c.tr.begin(name, parent, op)
	defer c.tr.end(id)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	var buf bytes.Buffer
	buf.Grow(c.sizes[name] + bytes.MinRead)
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	data := buf.Bytes()
	c.sizes[name] = max(c.sizes[name], len(data))
	if resp.StatusCode != want {
		if len(data) > 300 {
			data = data[:300]
		}
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, data)
	}
	c.tr.count(id, "bytes", float64(len(data)))
	return data, nil
}

// upload posts a dataset and returns its document.
func (c *client) upload(parent, op int, query string, body []byte) (datasetInfo, error) {
	var info datasetInfo
	data, err := c.call("http.upload", parent, op, http.MethodPost, "/v1/datasets?"+query, body, "", http.StatusCreated)
	if err != nil {
		return info, err
	}
	return info, json.Unmarshal(data, &info)
}

// mineJob runs one mining job the way a waiting user does: submit, follow
// the job's own event stream until it ends (no polling), confirm the job
// is done with GET /v1/jobs/{id}, and read the whole result document.
func (c *client) mineJob(parent, op int, req jobRequest) (jobInfo, []byte, error) {
	var job jobInfo
	body, err := json.Marshal(req)
	if err != nil {
		return job, nil, err
	}
	data, err := c.call("http.submit", parent, op, http.MethodPost, "/v1/jobs", body, "", http.StatusAccepted)
	if err != nil {
		return job, nil, err
	}
	if err := json.Unmarshal(data, &job); err != nil {
		return job, nil, fmt.Errorf("submit response: %w", err)
	}
	id := job.ID
	events, err := c.call("http.wait", parent, op, http.MethodGet, "/v1/jobs/"+id+"/events", nil, "application/x-ndjson", http.StatusOK)
	if err != nil {
		return job, nil, err
	}
	if state, err := finalState(events); err != nil || state != "done" {
		return job, nil, fmt.Errorf("job %s stream ended in state %q: %v", id, state, err)
	}
	data, err = c.call("http.job", parent, op, http.MethodGet, "/v1/jobs/"+id, nil, "", http.StatusOK)
	if err != nil {
		return job, nil, err
	}
	if err := json.Unmarshal(data, &job); err != nil {
		return job, nil, fmt.Errorf("job document: %w", err)
	}
	if job.State != "done" || job.Summary == nil {
		return job, nil, fmt.Errorf("job %s is %s (%s) after its stream ended", id, job.State, job.Error)
	}
	result, err := c.call("http.result", parent, op, http.MethodGet, "/v1/jobs/"+id+"/result", nil, "", http.StatusOK)
	return job, result, err
}

// finalState returns the state carried by the last "state" frame of a
// per-job NDJSON stream. A stream opened after its job finished carries
// only one synthetic, unsequenced state frame; that frame ends it too.
func finalState(stream []byte) (string, error) {
	var state string
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			Event string `json:"event"`
			Data  struct {
				State string `json:"state"`
			} `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("bad stream frame %q: %w", sc.Text(), err)
		}
		if ev.Event == "state" {
			state = ev.Data.State
		}
	}
	return state, sc.Err()
}

// patternPages reads a done job's patterns page by page until the last
// page, returning each page body.
func (c *client) patternPages(parent, op int, jobID string, limit int) ([][]byte, error) {
	var pages [][]byte
	token := ""
	for {
		path := fmt.Sprintf("/v1/jobs/%s/patterns?limit=%d", jobID, limit)
		if token != "" {
			path += "&page_token=" + token
		}
		data, err := c.call("http.patterns_page", parent, op, http.MethodGet, path, nil, "", http.StatusOK)
		if err != nil {
			return nil, err
		}
		pages = append(pages, data)
		next, err := nextPageToken(data)
		if err != nil {
			return nil, fmt.Errorf("patterns page: %w", err)
		}
		if next == "" {
			return pages, nil
		}
		if strings.ContainsAny(next, "&?# ") {
			return nil, fmt.Errorf("unexpected page token %q", next)
		}
		token = next
	}
}

// nextPageToken returns a page's next_page_token ("" on the last page). It
// decodes only the fields before the patterns array, where the server
// writes the token, so a client reading pages of thousands of patterns
// does not parse each one twice. A token written after the patterns would
// end the paging early and fail the check that the pages add up to the
// result.
func nextPageToken(page []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(page))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return "", fmt.Errorf("not a JSON object: %v", err)
	}
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return "", err
		}
		switch t {
		case "next_page_token":
			var s string
			err := dec.Decode(&s)
			return s, err
		case "patterns":
			return "", nil
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return "", err
		}
	}
	return "", nil
}
