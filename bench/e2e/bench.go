package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ftpm"
)

// config is one invocation's settings.
type config struct {
	root       string // checkout whose ./cmd/ftpm-serve is measured
	build      string // directory for the server binary and run directories
	seed       int64  // workload seed: the same seed gives the same inputs
	ops        int    // overrides the workload's operation count when positive
	tiny       bool   // shrinks every input, for smoke tests
	trace      bool   // replay every operation under spans after the run
	gomaxprocs int    // the server's GOMAXPROCS
	log        io.Writer
}

// roundOps is the number of operations per client between two reference
// samples: a quarter of a second or less on every workload, shorter than
// the host's spells of one speed, and few enough samples that they add
// about a tenth to a run's wall time.
const roundOps = 2

// setupReps is how often a run sets up its server from scratch; setup_s
// is the median, and the last set-up serves the timed operations. A set-up
// takes a few tenths of a second, so a hiccup of the host moves any one of
// them; the median of nine rides out several.
const setupReps = 9

// setUp starts a fresh server, stopping the previous one, and runs the
// workload's set-up through it, timed from exec to the set-up's end.
func (b *bench) setUp(rep int) error {
	if b.srv != nil {
		b.closeClients()
		if err := b.stopServer(); err != nil {
			return err
		}
	}
	b.dataDir = filepath.Join(b.dir, fmt.Sprintf("data-%d", rep))
	b.ctr, b.setupOp = newTracer(), 0
	raw, corrected, err := b.timeCorrected(func() error {
		if err := b.startServer(); err != nil {
			return err
		}
		b.clients = make([]*client, b.wl.spec().clients)
		for i := range b.clients {
			b.clients[i] = newClient(b.srv.base, b.ctr)
		}
		if err := b.wl.setup(b, b.clients[0]); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setups = append(b.setups, timing{raw / 1000, corrected / 1000})
	return nil
}

// refSample waits for the server, if one runs, to go idle, then times the
// reference computation (hostref.go).
func (b *bench) refSample() (float64, error) {
	if b.srv != nil {
		if err := b.srv.waitIdle(); err != nil {
			return 0, err
		}
	}
	return b.ref.sample(), nil
}

// timeCorrected times fn between two reference samples. It returns fn's
// wall time and that time corrected to the nominal host speed, in ms.
func (b *bench) timeCorrected(fn func() error) (raw, corrected float64, err error) {
	before, err := b.refSample()
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := fn(); err != nil {
		return 0, 0, err
	}
	raw = ms(time.Since(start))
	after, err := b.refSample()
	if err != nil {
		return 0, 0, err
	}
	return raw, raw * scale(before, after), nil
}

// timing is a time as measured and corrected to the nominal host speed.
type timing struct{ raw, corrected float64 }

// value returns the time corrected or as measured.
func (t timing) value(corrected bool) float64 {
	if corrected {
		return t.corrected
	}
	return t.raw
}

// add adds a time measured in a round whose correction factor is f.
func (t *timing) add(v, f float64) {
	t.raw += v
	t.corrected += v * f
}

// opRecord is one operation as the client saw it.
type opRecord struct {
	latency  time.Duration
	err      error
	job      jobInfo
	patterns int      // patterns in the /result document
	digest   [32]byte // sha256 of the /result body
	scale    float64  // host-speed correction of the round the operation ran in
}

// bench is one run of one workload.
type bench struct {
	cfg     config
	wl      workload
	dir     string // run directory, removed afterwards
	bin     string // the ftpm-serve binary
	dataDir string // the durable server's data directory
	nops    int
	srv     *serverProc
	clients []*client
	ctr     *tracer // client spans of the final set-up and the timed operations
	setupOp int     // id of the latest set-up step (negative)
	busy    busyClock
	ref     *hostRef
	ops     []opRecord
	setups  []timing // seconds per set-up
	busyMs  timing   // time with at least one operation in flight
	cpuMs   timing   // server CPU time over the timed operations

	// checks counts verifications that belong to no single operation
	// (restarts, a set-up result) and checkErrs holds their failures.
	checks    int
	checkErrs []error
	extra     []metricOut // the workload's own end-to-end metrics
}

// busyClock accumulates the time during which at least one operation is
// in flight, so input generation and checks between operations do not
// dilute throughput.
type busyClock struct {
	mu       sync.Mutex
	inflight int
	since    time.Time
	total    time.Duration
}

func (c *busyClock) enter() {
	c.mu.Lock()
	if c.inflight == 0 {
		c.since = time.Now()
	}
	c.inflight++
	c.mu.Unlock()
}

func (c *busyClock) leave() {
	c.mu.Lock()
	c.inflight--
	if c.inflight == 0 {
		c.total += time.Since(c.since)
	}
	c.mu.Unlock()
}

// timed runs timed operation i under a root client span and the busy
// clock, returning its latency.
func (b *bench) timed(c *client, i int, fn func(root, op int) error) (time.Duration, error) {
	b.busy.enter()
	defer b.busy.leave()
	start := time.Now()
	root := c.tr.begin("op", 0, i+1)
	err := fn(root, i+1)
	c.tr.end(root)
	return time.Since(start), err
}

// setupStep runs one set-up step under its own root span.
func (b *bench) setupStep(c *client, fn func(root, op int) error) error {
	b.setupOp--
	root := c.tr.begin("op", 0, b.setupOp)
	defer c.tr.end(root)
	return fn(root, b.setupOp)
}

// fail records a failed check that belongs to no single operation.
func (b *bench) fail(err error) {
	b.checks++
	if err != nil {
		b.checkErrs = append(b.checkErrs, err)
	}
}

// failOp records a failed off-clock check of operation i.
func (b *bench) failOp(i int, err error) {
	if err != nil && b.ops[i].err == nil {
		b.ops[i].err = err
	}
}

// startServer starts a fresh server for the run (durable on b.dataDir when
// the workload is) and waits until it is ready.
func (b *bench) startServer() error {
	var extra []string
	if b.wl.spec().durable {
		extra = []string{"-data", b.dataDir}
	}
	srv, err := startServer(b.bin, filepath.Join(b.dir, "server.log"), b.cfg.gomaxprocs, extra...)
	if err != nil {
		return err
	}
	b.srv = srv
	return srv.waitReady(time.Minute)
}

func (b *bench) closeClients() {
	for _, c := range b.clients {
		c.close()
	}
}

// stopServer stops the running server gracefully.
func (b *bench) stopServer() error {
	srv := b.srv
	b.srv = nil
	return srv.stop()
}

// outcome is what one workload run reports.
type outcome struct {
	workload  string
	attempted int
	failed    int
	errs      []error
	metrics   []metricOut
	client    []span
	replay    []span
}

func (o *outcome) correct() bool { return o.failed == 0 }

// runWorkload runs one workload end to end: input generation, set-up,
// the timed closed loop, the workload's after-run phase, the off-clock
// checks and, when tracing, the replay.
func runWorkload(cfg config, wl workload) (*outcome, error) {
	sp := wl.spec()
	b := &bench{cfg: cfg, wl: wl, bin: filepath.Join(cfg.build, "ftpm-serve"), ref: newHostRef(cfg.gomaxprocs)}
	var err error
	if b.dir, err = os.MkdirTemp(cfg.build, "run-"+sp.name+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	defer func() {
		if b.srv != nil {
			b.srv.kill()
		}
	}()
	b.nops = cfg.ops
	if b.nops <= 0 {
		b.nops = sp.ops
	}
	fmt.Fprintf(cfg.log, "%s: %d ops, %d clients, seed %d\n", sp.name, b.nops, sp.clients, cfg.seed)
	if err := wl.generate(b); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}

	for rep := 0; rep < setupReps; rep++ {
		if err := b.setUp(rep); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go func() { rssDone <- b.srv.sampleRSS(stopRSS) }()
	err = b.runOps()
	close(stopRSS)
	rss := <-rssDone
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "%s: timed phase %.1fs, set-ups %.2fs\n", sp.name, time.Since(start).Seconds(), b.setupSeconds(false))
	peak, err := b.srv.statusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	b.closeClients()
	if err := wl.finish(b); err != nil {
		return nil, err
	}
	if b.srv != nil {
		if err := b.stopServer(); err != nil {
			return nil, err
		}
	}
	if err := wl.verify(b); err != nil {
		return nil, err
	}

	o := &outcome{workload: sp.name, attempted: b.nops + b.checks, client: b.ctr.snapshot()}
	for i, op := range b.ops {
		if op.err != nil {
			o.failed++
			o.errs = append(o.errs, fmt.Errorf("op %d: %w", i+1, op.err))
		}
	}
	o.failed += len(b.checkErrs)
	o.errs = append(o.errs, b.checkErrs...)
	o.metrics = b.endToEnd(rss, peak)

	if cfg.trace {
		if o.failed > 0 {
			return o, nil // a replay of a failed run would describe a computation the server did not finish
		}
		opP50 := median(b.latenciesMs(false))
		r := &replayer{tr: newTracer(), ctx: context.Background()}
		if err := wl.replay(b, r); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		o.replay = r.tr.snapshot()
		if err := checkSelfTimes(o.replay); err != nil {
			return nil, fmt.Errorf("replay spans: %w", err)
		}
		if err := checkSelfTimes(o.client); err != nil {
			return nil, fmt.Errorf("client spans: %w", err)
		}
		o.metrics = layerMetrics(o.client, o.replay, opP50)
	}
	return o, nil
}

// runOps drives the timed operations in a closed loop: each client sends
// its next operation only after its previous one completed. The loop runs
// in rounds of roundOps operations per client. The reference computation
// is timed before the first round and after each, and a round's times are
// corrected by the samples on either side of it.
func (b *bench) runOps() error {
	// The clients read megabytes per operation on the cores the server
	// uses; collecting less often keeps the harness's share of them small.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	b.ops = make([]opRecord, b.nops)
	before, err := b.refSample()
	if err != nil {
		return err
	}
	cpu0, err := b.srv.cpuMillis()
	if err != nil {
		return err
	}
	for from := 0; from < b.nops; from += roundOps * len(b.clients) {
		to := min(from+roundOps*len(b.clients), b.nops)
		busy0 := b.busy.total
		var next atomic.Int64
		next.Store(int64(from))
		var wg sync.WaitGroup
		for _, c := range b.clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= to {
						return
					}
					b.ops[i] = b.wl.op(b, c, i)
				}
			}(c)
		}
		wg.Wait()
		busy := ms(b.busy.total - busy0)
		cpu1, err := b.srv.cpuMillis()
		if err != nil {
			return err
		}
		after, err := b.refSample()
		if err != nil {
			return err
		}
		f := scale(before, after)
		for i := from; i < to; i++ {
			b.ops[i].scale = f
		}
		b.busyMs.add(busy, f)
		b.cpuMs.add(cpu1-cpu0, f)
		before, cpu0 = after, cpu1
	}
	return nil
}

// setupSeconds returns the time of each set-up, corrected or as measured.
func (b *bench) setupSeconds(corrected bool) []float64 {
	var out []float64
	for _, t := range b.setups {
		out = append(out, t.value(corrected))
	}
	return out
}

// latenciesMs returns the latencies of the operations that succeeded, as
// measured or corrected.
func (b *bench) latenciesMs(corrected bool) []float64 {
	var out []float64
	for _, op := range b.ops {
		if op.err == nil {
			v := ms(op.latency)
			if corrected {
				v *= op.scale
			}
			out = append(out, v)
		}
	}
	return out
}

// endToEnd computes the run's end-to-end metrics from the timed phase.
// The gated times are corrected to the nominal host speed; raw_* are the
// same measures as taken.
func (b *bench) endToEnd(rssMB []float64, peakMB float64) []metricOut {
	var out []metricOut
	for _, corrected := range []bool{true, false} {
		prefix := ""
		if !corrected {
			prefix = "raw_"
		}
		lat := b.latenciesMs(corrected)
		n := len(lat)
		out = append(out,
			metricOut{Name: prefix + "setup_s", Value: median(b.setupSeconds(corrected)), Unit: "s", N: len(b.setups)},
			metricOut{Name: prefix + "op_p50_ms", Value: median(lat), Unit: "ms", N: n},
			metricOut{Name: prefix + "op_p90_ms", Value: percentile(lat, 900), Unit: "ms", N: n},
		)
		if pm, ok := tailPercentile(n); ok && pm > 900 {
			out = append(out, metricOut{Name: fmt.Sprintf("%sop_p%g_ms", prefix, float64(pm)/10), Value: percentile(lat, pm), Unit: "ms", N: n})
		}
		out = append(out,
			metricOut{Name: prefix + "ops_per_s", Value: float64(n) / (b.busyMs.value(corrected) / 1000), Unit: "1/s", N: n},
			metricOut{Name: prefix + "server_cpu_ms_per_op", Value: b.cpuMs.value(corrected) / float64(b.nops), Unit: "ms", N: b.nops},
		)
	}
	n := len(b.latenciesMs(false))
	if above := n - nearestRank(n, 900); above < 10 {
		fmt.Fprintf(b.cfg.log, "%s: op_p90_ms has only %d samples above it\n", b.wl.spec().name, above)
	}
	out = append(out,
		metricOut{Name: "ref_unit_ms", Value: median(b.ref.samples), Unit: "ms", N: len(b.ref.samples)},
		metricOut{Name: "server_rss_mb", Value: mean(rssMB), Unit: "MB", N: len(rssMB)},
		metricOut{Name: "server_peak_rss_mb", Value: peakMB, Unit: "MB", N: 1},
		metricOut{Name: "error_rate", Value: float64(b.nops-n+len(b.checkErrs)) / float64(b.nops+b.checks), Unit: "ratio", N: b.nops + b.checks},
	)
	return append(out, b.extra...)
}

// stepP50 is the median, over the timed operations, of the corrected
// time of the client spans with the given name.
func (b *bench) stepP50(name string) metricOut {
	var vals []float64
	for _, s := range b.ctr.snapshot() {
		if s.Name == name && s.Op > 0 {
			vals = append(vals, durMs(s)*b.ops[s.Op-1].scale)
		}
	}
	return metricOut{Value: median(vals), Unit: "ms", N: len(vals)}
}

// checkResult decodes a /result body and checks its pattern count against
// the job summary, recording count and digest for the replay check.
func checkResult(rec *opRecord, body []byte) {
	if rec.err != nil {
		return
	}
	var doc ftpm.ResultJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		rec.err = fmt.Errorf("result document: %w", err)
		return
	}
	rec.patterns = len(doc.Patterns)
	rec.digest = sha256.Sum256(body)
	if rec.patterns != rec.job.Summary.Patterns {
		rec.err = fmt.Errorf("result has %d patterns, job summary %d", rec.patterns, rec.job.Summary.Patterns)
	}
}
