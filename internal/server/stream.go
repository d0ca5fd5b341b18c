package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ftpm/internal/server/events"
)

// Real-time job event streams: GET /v1/jobs/{id}/events follows one job
// and ends after its terminal event; GET /v1/events is the firehose
// across all jobs. Both speak Server-Sent Events by default and NDJSON
// when the request prefers application/x-ndjson. Clients resume with the
// standard Last-Event-ID header (or ?last_event_id= for EventSource
// implementations that cannot set headers): events after that id replay
// from the hub's ring, and a gap larger than the ring surfaces as a
// "dropped" event rather than silent loss.

// streamBuffer is the per-subscriber delivery buffer. Generous relative
// to one job's event count (2 + levels), so only a genuinely stalled
// consumer drops events.
const streamBuffer = 256

// heartbeatEvery paces the keep-alive comments of an idle SSE stream so
// intermediaries don't reap the connection.
const heartbeatEvery = 15 * time.Second

// streamWriter serializes hub events in the negotiated framing.
type streamWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	ndjson  bool
}

// streamLine is the NDJSON framing of one event: the SSE id/event fields
// folded into the JSON object.
type streamLine struct {
	ID    uint64          `json:"id,omitempty"`
	Event string          `json:"event"`
	Data  json.RawMessage `json:"data"`
}

// event writes one frame. id 0 means an unsequenced frame (synthetic
// snapshots and dropped notices): it carries no SSE id line, so it never
// becomes a client's Last-Event-ID.
func (sw *streamWriter) event(id uint64, typ string, data json.RawMessage) error {
	var err error
	if sw.ndjson {
		err = json.NewEncoder(sw.w).Encode(streamLine{ID: id, Event: typ, Data: data})
	} else {
		if id != 0 {
			_, err = fmt.Fprintf(sw.w, "id: %d\nevent: %s\ndata: %s\n\n", id, typ, data)
		} else {
			_, err = fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", typ, data)
		}
	}
	if err != nil {
		return err
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
	return nil
}

// droppedData is the payload of a "dropped" event: how many events the
// subscriber missed (slow consumption or a resume gap beyond the ring).
type droppedData struct {
	Dropped uint64 `json:"dropped"`
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		return json.RawMessage(`{}`)
	}
	return b
}

// testStreamHook, when non-nil, runs in every per-job stream handler
// between its hub subscription and its job snapshot; the stream tests use
// it to land a job's final event inside that window.
var testStreamHook func(*job)

// handleEvents serves one event stream; jobID "" is the firehose.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, jobID string) {
	var j *job
	if jobID != "" {
		var ok bool
		j, ok = s.jobs.get(jobID)
		if !ok {
			writeError(w, http.StatusNotFound, codeNotFound, "no such job: %s", jobID)
			return
		}
	} else if max := int64(s.opts.MaxStreamSubscribers); max > 0 {
		// Firehose quota: each stream pins a delivery buffer and a
		// handler goroutine for its whole lifetime, so the count is
		// admission-controlled like job submissions are. Per-job streams
		// stay uncounted — they end with their job.
		if s.streamSubs.Add(1) > max {
			s.streamSubs.Add(-1)
			s.streamRejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, codeQuotaExceeded,
				"too many event stream subscribers (limit %d); retry later or narrow to per-job streams", max)
			return
		}
		defer s.streamSubs.Add(-1)
	}

	lastEventID := r.Header.Get("Last-Event-ID")
	if lastEventID == "" {
		lastEventID = r.URL.Query().Get("last_event_id")
	}
	resume := lastEventID != ""
	var afterID uint64
	if resume {
		n, err := strconv.ParseUint(lastEventID, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "bad Last-Event-ID %q", lastEventID)
			return
		}
		afterID = n
	} else if jobID == "" {
		// A fresh firehose connection starts live: replaying the whole ring
		// would front-load stale history every time a dashboard attaches.
		afterID = s.hub.LastID()
	}
	// A fresh per-job connection keeps afterID 0: the job's retained
	// events replay so a late subscriber still sees queued→running→…

	sub, seededFinal := s.hub.Subscribe(jobID, afterID, streamBuffer)
	defer s.hub.Unsubscribe(sub)

	sw := &streamWriter{w: w, ndjson: strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")}
	sw.flusher, _ = w.(http.Flusher)
	if sw.ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("X-Accel-Buffering", "no")
	}
	w.WriteHeader(http.StatusOK)
	if sw.flusher != nil {
		sw.flusher.Flush()
	}

	// A resume gap beyond the ring is a real loss and is reported; a fresh
	// connection's afterID 0 against a rotated ring is expected history,
	// not a drop.
	gap := s.hub.TakeMissed(sub)
	if resume && gap > 0 {
		if sw.event(0, "dropped", mustJSON(droppedData{Dropped: gap})) != nil {
			return
		}
	}

	// deliver writes one hub event, preceded by a "dropped" frame when the
	// hub discarded events for this subscriber, and reports whether the
	// stream is over.
	deliver := func(ev events.Event) bool {
		if missed := s.hub.TakeMissed(sub); missed > 0 {
			if sw.event(0, "dropped", mustJSON(droppedData{Dropped: missed})) != nil {
				return true
			}
		}
		return sw.event(ev.ID, ev.Type, ev.Data) != nil || (jobID != "" && ev.Final)
	}

	if h := testStreamHook; h != nil && j != nil {
		h(j)
	}

	// A per-job stream whose job is already terminal but whose replay did
	// not seed the final event ends without waiting. The job publishes
	// its final event under the lock that makes it terminal, so a final
	// published after Subscribe is already buffered: flush the buffer
	// first. Otherwise either the client's Last-Event-ID proves it already
	// saw the finale (clean end), or the ring rotated past it / the job
	// predates this process, in which case a synthetic unsequenced
	// "state" snapshot resynchronizes the client.
	if j != nil && !seededFinal {
		if info := j.snapshot(); info.State.Terminal() {
			for len(sub.C) > 0 {
				if deliver(<-sub.C) {
					return
				}
			}
			if !resume || gap > 0 {
				_ = sw.event(0, "state", mustJSON(jobEventData{
					JobID: info.ID, Tenant: info.Tenant, State: info.State, Error: info.Error,
				}))
			}
			return
		}
	}

	ctx := r.Context()
	var heartbeat *time.Ticker
	var heartbeatC <-chan time.Time
	if !sw.ndjson {
		heartbeat = time.NewTicker(heartbeatEvery)
		heartbeatC = heartbeat.C
		defer heartbeat.Stop()
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-heartbeatC:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			if sw.flusher != nil {
				sw.flusher.Flush()
			}
		case ev, ok := <-sub.C:
			if !ok || deliver(ev) {
				return // !ok: hub closed, server shutting down
			}
		}
	}
}
