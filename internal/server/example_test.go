package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"ftpm/internal/server"
)

// Example_serve shows the full HTTP lifecycle of the mining service:
// upload a CSV dataset, submit a mining job, poll it to completion, and
// fetch the mined patterns.
func Example_serve() {
	srv, err := server.New(server.Options{Workers: 1})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// 1. Upload a numeric CSV dataset; values >= 0.5 symbolize to "On".
	csv := "time,X,Y\n0,1.61,0.0\n300,1.21,0.9\n600,0.41,0.9\n900,0.0,0.0\n"
	resp, err := http.Post(ts.URL+"/v1/datasets?name=demo&threshold=0.5", "text/csv", strings.NewReader(csv))
	if err != nil {
		panic(err)
	}
	var ds server.DatasetInfo
	json.NewDecoder(resp.Body).Decode(&ds)
	resp.Body.Close()
	fmt.Printf("dataset %s has %d series\n", ds.ID, len(ds.Series))

	// 2. Submit a mining job against the dataset.
	req, _ := json.Marshal(server.MiningRequest{
		DatasetID:  ds.ID,
		MinSupport: 1, MinConfidence: 0, NumWindows: 1,
	})
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(req))
	if err != nil {
		panic(err)
	}
	var job server.JobInfo
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()

	// 3. Poll the job until it reaches a final state.
	for !job.State.Terminal() {
		time.Sleep(5 * time.Millisecond)
		resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			panic(err)
		}
		json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
	}
	fmt.Printf("job %s: %s\n", job.ID, job.State)

	// 4. Page through the mined patterns.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID + "/patterns?limit=100")
	if err != nil {
		panic(err)
	}
	var page struct {
		Total int `json:"total"`
	}
	json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	fmt.Printf("found patterns: %t\n", page.Total > 0)

	// Output:
	// dataset ds-1 has 2 series
	// job job-1: done
	// found patterns: true
}
