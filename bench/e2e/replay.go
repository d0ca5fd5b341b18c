package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"ftpm"
	"ftpm/internal/core"
	"ftpm/internal/csvio"
	"ftpm/internal/events"
	"ftpm/internal/mi"
	"ftpm/internal/par"
	"ftpm/internal/server/store"
	"ftpm/internal/timeseries"
)

// replayer re-runs, in-process and off the clock, the server-side work of
// every operation of a run through the layers' public functions, with the
// same inputs, options and order as the server's upload handler and
// ftpm.Prepared.Mine. Each call is a span; the spans give the per-layer
// metrics.
type replayer struct {
	tr  *tracer
	ctx context.Context
	wal *store.Log // the replayed job log; nil for in-memory workloads
}

// op wraps one replayed operation (or set-up step) in its root span.
func (r *replayer) op(op int, fn func(root int) error) error {
	root := r.tr.begin("op", 0, op)
	defer r.tr.end(root)
	return fn(root)
}

// timed runs fn under a span and returns the span's id.
func (r *replayer) timed(name string, parent, op int, fn func() error) (int, error) {
	id := r.tr.begin(name, parent, op)
	err := fn()
	r.tr.end(id)
	if err != nil {
		return id, fmt.Errorf("%s: %w", name, err)
	}
	return id, nil
}

// readSymbolic is the symbolic upload's ingest.
func (r *replayer) readSymbolic(parent, op int, body []byte) (*timeseries.SymbolicDB, error) {
	var db *timeseries.SymbolicDB
	id, err := r.timed("csvio.read", parent, op, func() (err error) {
		db, err = csvio.ReadSymbolic(bytes.NewReader(body))
		return err
	})
	r.tr.count(id, "bytes", float64(len(body)))
	return db, err
}

// readNumeric is the numeric upload's ingest: the chunked CSV parse, then
// the On/Off symbolization fanned out over the shard count.
func (r *replayer) readNumeric(parent, op int, body []byte, shards int) (*timeseries.SymbolicDB, error) {
	var series []*timeseries.Series
	id, err := r.timed("csvio.read", parent, op, func() (err error) {
		series, err = csvio.ReadNumericChunked(bytes.NewReader(body), shards)
		return err
	})
	r.tr.count(id, "bytes", float64(len(body)))
	if err != nil {
		return nil, err
	}
	var db *timeseries.SymbolicDB
	_, err = r.timed("timeseries.symbolize", parent, op, func() (err error) {
		out := make([]*timeseries.SymbolicSeries, len(series))
		par.For(len(series), shards, func(i int) {
			out[i] = series[i].Symbolize(timeseries.NewOnOff(threshold))
		})
		db, err = timeseries.NewSymbolicDB(out...)
		return err
	})
	return db, err
}

// analyze is A-HTPGM's correlation analysis: the pairwise NMI table, then
// µ resolved from the density and the thresholded graph.
func (r *replayer) analyze(parent, op int, src timeseries.SymbolSource, density float64) (*mi.Graph, float64, int, error) {
	var pw *mi.Pairwise
	if _, err := r.timed("mi.pairwise", parent, op, func() (err error) {
		pw, err = mi.ComputePairwise(src)
		return err
	}); err != nil {
		return nil, 0, 0, err
	}
	var g *mi.Graph
	var mu float64
	id, err := r.timed("mi.graph", parent, op, func() (err error) {
		if mu, err = mi.ResolveMu(pw, 0, density); err != nil {
			return err
		}
		g, err = pw.Graph(mu)
		return err
	})
	r.tr.count(id, "series", float64(src.NumSeries()))
	return g, mu, id, err
}

// convert is a geometry's first DSEQ conversion on a sharded dataset.
func (r *replayer) convert(parent, op int, src timeseries.SymbolSource, split events.SplitOptions, shards int) (*core.ShardedView, error) {
	var sh []*events.DB
	id, err := r.timed("events.convert", parent, op, func() (err error) {
		sh, err = events.ConvertShards(src, split, shards)
		return err
	})
	if err != nil {
		return nil, err
	}
	var v *core.ShardedView
	_, err = r.timed("core.prepare", parent, op, func() (err error) {
		v, err = core.PrepareShards(sh)
		return err
	})
	if err == nil {
		r.tr.count(id, "sequences", float64(v.Merged.Size()))
	}
	return v, err
}

// convertDelta is the conversion of an appended generation against the
// previous generation's view.
func (r *replayer) convertDelta(parent, op int, src timeseries.SymbolSource, split events.SplitOptions, prev *core.ShardedView, prevEnd ftpm.Time) (*core.ShardedView, error) {
	var sh []*events.DB
	var stable int
	id, err := r.timed("events.convert_delta", parent, op, func() (err error) {
		sh, stable, err = events.ConvertShardsDelta(src, split, len(prev.Shards), prev.Shards, prevEnd)
		return err
	})
	if err != nil {
		return nil, err
	}
	var v *core.ShardedView
	_, err = r.timed("core.prepare", parent, op, func() (err error) {
		v, err = core.PrepareShardsDelta(prev, sh, stable)
		return err
	})
	if err == nil {
		r.tr.count(id, "sequences", float64(v.Merged.Size()))
		r.tr.count(id, "stable", float64(stable))
	}
	return v, err
}

// mine runs HTPGM over a prepared view. Level spans come from the miner's
// Progress callback: each level ends when its callback arrives and began
// its reported Duration earlier.
func (r *replayer) mine(parent, op int, v *core.ShardedView, cfg core.Config) (*core.Result, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := r.tr.begin("core.mine", parent, op)
	cfg.Progress = func(ls core.LevelStats) {
		end := r.tr.now()
		name := "core.lk"
		switch ls.K {
		case 1:
			name = "core.l1"
		case 2:
			name = "core.l2"
		}
		lid := r.tr.add(name, id, op, end-int64(ls.Duration), end)
		r.tr.count(lid, "candidates", float64(ls.Candidates))
		r.tr.count(lid, "patterns", float64(ls.Patterns))
		r.tr.count(lid, "pruned_apriori", float64(ls.PrunedApriori))
		r.tr.count(lid, "pruned_trans", float64(ls.PrunedTrans))
		r.tr.count(id, "occurrences", float64(ls.Occurrences))
	}
	res, err := core.MineShardedView(r.ctx, v, cfg)
	r.tr.end(id)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("core.mine: %w", err)
	}
	r.tr.count(id, "alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
	return res, nil
}

// export builds the result document and encodes it as the server's
// /result handler does (indented JSON), returning the encoded bytes.
func (r *replayer) export(parent, op int, res *core.Result, db *events.DB, mu float64) (*ftpm.ResultJSON, []byte, error) {
	var doc ftpm.ResultJSON
	_, _ = r.timed("export.document", parent, op, func() error {
		doc = (&ftpm.Result{Singles: res.Singles, Patterns: res.Patterns, Stats: res.Stats, DB: db, Mu: mu}).Document()
		return nil
	})
	body, err := r.encode(parent, op, &doc)
	return &doc, body, err
}

// encode is the /result handler's indented encoding of a document.
func (r *replayer) encode(parent, op int, doc *ftpm.ResultJSON) ([]byte, error) {
	var buf bytes.Buffer
	id, err := r.timed("export.encode", parent, op, func() error {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
	r.tr.count(id, "bytes", float64(buf.Len()))
	return buf.Bytes(), err
}

// walKindJobTerminal is the log record kind of a finished job. It mirrors
// kindJobTerminal in internal/server/persist.go; the record bytes the
// replay appends under it are the server's own (serverJobRecord).
const walKindJobTerminal store.Kind = 4

// logResult appends a finished job's record to the replayed log (fsync'd,
// as the durable server logs every terminal job). The record is the
// server's own bytes for that job, read back from its data directory.
func (r *replayer) logResult(parent, op int, record []byte) error {
	_, err := r.timed("store.wal_append", parent, op, func() error {
		return r.wal.Append(walKindJobTerminal, record)
	})
	return err
}

// serverJobRecords reads the job records of a stopped durable server from
// its data directory, keyed by job id: the snapshot's jobs, then the
// terminal records logged after it. Each value is the server's own
// encoding of the job (jobRecord in internal/server/persist.go).
func serverJobRecords(dataDir string) (map[string]json.RawMessage, error) {
	lg, rec, err := store.Open(dataDir)
	if err != nil {
		return nil, err
	}
	defer lg.Close()
	var raws []json.RawMessage
	if rec.Snapshot != nil {
		var snap struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return nil, fmt.Errorf("server snapshot: %w", err)
		}
		raws = snap.Jobs
	}
	for _, r := range rec.Records {
		if r.Kind == walKindJobTerminal {
			raws = append(raws, r.Data)
		}
	}
	out := make(map[string]json.RawMessage, len(raws))
	for _, raw := range raws {
		var j struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &j); err != nil {
			return nil, fmt.Errorf("server job record: %w", err)
		}
		out[j.ID] = raw
	}
	return out, nil
}

// serverJobRecord returns the server's record of the job of want and
// checks that it is the record the replay models: a done job carrying the
// result document the server served for that job.
func serverJobRecord(records map[string]json.RawMessage, want opRecord) ([]byte, error) {
	raw, ok := records[want.job.ID]
	if !ok {
		return nil, fmt.Errorf("the server's data directory has no record of job %s", want.job.ID)
	}
	var j struct {
		State string           `json:"state"`
		Doc   *ftpm.ResultJSON `json:"doc"`
	}
	if err := json.Unmarshal(raw, &j); err != nil {
		return nil, fmt.Errorf("job %s record: %w", want.job.ID, err)
	}
	if j.State != "done" || j.Doc == nil {
		return nil, fmt.Errorf("job %s record is %q without the result document the replay logs", want.job.ID, j.State)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(j.Doc); err != nil {
		return nil, err
	}
	if sha256.Sum256(buf.Bytes()) != want.digest {
		return nil, fmt.Errorf("job %s record carries a document other than the one /result served", want.job.ID)
	}
	return raw, nil
}

// sameSegments requires the replay's sealed segment files to match the
// server's in name and size: one base segment, then one delta segment per
// append, as the replay's chain models them.
func sameSegments(serverDir, replayDir string) error {
	list := func(dir string) (map[string]int64, error) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		out := make(map[string]int64)
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".seg" {
				continue
			}
			info, err := e.Info()
			if err != nil {
				return nil, err
			}
			out[e.Name()] = info.Size()
		}
		return out, nil
	}
	srv, err := list(serverDir)
	if err != nil {
		return err
	}
	rep, err := list(replayDir)
	if err != nil {
		return err
	}
	for _, name := range sortedKeys(srv) {
		size, ok := rep[name]
		if !ok {
			return fmt.Errorf("the server sealed %s, the replay did not", name)
		}
		if size != srv[name] {
			return fmt.Errorf("%s: the server's has %d bytes, the replay's %d", name, srv[name], size)
		}
	}
	if len(rep) != len(srv) {
		return fmt.Errorf("the replay sealed %d segment files, the server %d", len(rep), len(srv))
	}
	return nil
}

// sealFingerprint stands in for the content hash a segment footer
// carries (fingerprintSource in internal/server/source.go); it has the
// length of that hex sha256, so a sealed file has the server's size.
var sealFingerprint = strings.Repeat("0", 2*sha256.Size)

// seal writes src into a segment file and maps it back, as a durable
// upload or append does.
func (r *replayer) seal(parent, op int, path string, src timeseries.SymbolSource) (*store.Segment, error) {
	var size int64
	id, err := r.timed("store.seal", parent, op, func() (err error) {
		size, err = store.WriteSegment(path, src, sealFingerprint)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.tr.count(id, "bytes", float64(size))
	var seg *store.Segment
	_, err = r.timed("store.segment_open", parent, op, func() (err error) {
		seg, err = store.OpenSegment(path)
		return err
	})
	return seg, err
}

// fidelity checks that a replayed operation computed what the server
// returned for it: the same pattern count and the same encoded document.
func fidelity(op int, patterns int, body []byte, want opRecord) error {
	if patterns != want.patterns || sha256.Sum256(body) != want.digest {
		return fmt.Errorf("replay of op %d diverged from the server: %d patterns (server %d), digest match %v",
			op, patterns, want.patterns, sha256.Sum256(body) == want.digest)
	}
	return nil
}

// chain is the symbol source of an appended generation: the previous
// generation's view followed by the delta segment, with a run crossing the
// seam merged. It mirrors chainSource in internal/server/source.go, so the
// replayed delta conversion walks the same nested sources; sameSegments
// fails the replay when the server stops sealing one delta per append.
type chain struct {
	base, tail timeseries.SymbolSource
}

func (c *chain) NumSeries() int                { return c.tail.NumSeries() }
func (c *chain) SeriesName(i int) string       { return c.tail.SeriesName(i) }
func (c *chain) SeriesAlphabet(i int) []string { return c.tail.SeriesAlphabet(i) }
func (c *chain) Len() int                      { return c.base.Len() + c.tail.Len() }
func (c *chain) Start() ftpm.Time              { return c.base.Start() }
func (c *chain) Step() ftpm.Duration           { return c.base.Step() }
func (c *chain) End() ftpm.Time                { return c.Start() + ftpm.Time(c.Len())*c.Step() }

func (c *chain) AppendRuns(i int, dst []timeseries.Run) []timeseries.Run {
	dst = c.base.AppendRuns(i, dst)
	mark := len(dst)
	dst = c.tail.AppendRuns(i, dst)
	off := c.base.Len()
	for j := mark; j < len(dst); j++ {
		dst[j].First += off
		dst[j].Last += off
	}
	if mark > 0 && len(dst) > mark && dst[mark-1].Symbol == dst[mark].Symbol {
		dst[mark-1].Last = dst[mark].Last
		dst = append(dst[:mark], dst[mark+1:]...)
	}
	return dst
}
