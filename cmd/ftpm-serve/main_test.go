package main

import (
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ftpm/internal/server"
)

// TestAPIDoesNotServeProfiles requires the API handler to answer the
// pprof paths with the 404 envelope: this binary links net/http/pprof,
// which registers on http.DefaultServeMux, and only the -debug-addr
// listener may serve it.
func TestAPIDoesNotServeProfiles(t *testing.T) {
	srv, err := server.New(server.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/v1/debug/pprof/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || err != nil || body.Error.Code != "not_found" {
			t.Fatalf("GET %s: status %d, envelope code %q (%v); want 404 not_found", path, resp.StatusCode, body.Error.Code, err)
		}
	}
}

// TestDebugListenerServesProfiles starts the -debug-addr listener on a
// loopback port and fetches the process's command line from it.
func TestDebugListenerServesProfiles(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := serveDebug(l, log.New(io.Discard, "", 0))
	defer hs.Close()
	resp, err := http.Get("http://" + l.Addr().String() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ftpm-serve") {
		t.Fatalf("GET /debug/pprof/cmdline: status %d, body %q", resp.StatusCode, body)
	}
}
