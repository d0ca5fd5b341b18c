package main

// metricDef is one metric the harness reports. Bound is the share of the
// parent commit's median by which an end-to-end metric may get worse before
// a change counts as a regression (0: any worsening counts); per-layer
// metrics carry no bound. Export marks the metrics BENCHMARK.json lists,
// which the final result line carries for every workload; the rest are
// printed only where their workload or layer runs.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"; empty for per-layer metrics
	Bound  float64
	Export bool
}

// endToEnd lists the metrics a user of the service sees, measured with
// tracing off. Every time but the raw_* ones is corrected to the nominal
// host speed (hostref.go). Memory is not exported: with GC timing it moved
// by a quarter between runs of fetch-cached.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Export: true},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Export: true},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Export: true},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Export: true},
	{Name: "server_cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25, Export: true},
	{Name: "raw_setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "raw_op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "raw_op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "raw_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "raw_server_cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ref_unit_ms", Unit: "ms"},
	{Name: "server_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "server_peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "error_rate", Unit: "ratio", Better: "lower", Bound: 0},
	{Name: "upload_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "append_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "restart_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "disk_bytes_per_sample", Unit: "B", Better: "lower", Bound: 0.05},
}

// perLayer lists the traced run's metrics. Times are medians over the
// operations in which the layer ran of its per-operation total; counts are
// medians per operation; shares are totals over the run.
var perLayer = []metricDef{
	{Name: "http.upload_ms", Unit: "ms", Export: true},
	{Name: "http.submit_ms", Unit: "ms", Export: true},
	{Name: "http.wait_ms", Unit: "ms", Export: true},
	{Name: "http.result_ms", Unit: "ms", Export: true},
	{Name: "http.result_bytes", Unit: "B", Export: true},
	{Name: "http.patterns_page_ms", Unit: "ms"},
	{Name: "http.delete_ms", Unit: "ms"},
	{Name: "http.append_ms", Unit: "ms"},
	{Name: "csvio.read_ms", Unit: "ms", Export: true},
	{Name: "csvio.read_mb_per_s", Unit: "MB/s", Export: true},
	{Name: "timeseries.symbolize_ms", Unit: "ms"},
	{Name: "mi.pairwise_ms", Unit: "ms"},
	{Name: "mi.graph_ms", Unit: "ms"},
	{Name: "mi.series_filtered_share", Unit: "ratio"},
	{Name: "mi.pairs_filtered_share", Unit: "ratio"},
	{Name: "events.convert_ms", Unit: "ms", Export: true},
	{Name: "events.convert_delta_ms", Unit: "ms"},
	{Name: "events.stable_window_share", Unit: "ratio"},
	{Name: "events.sequences", Unit: "count", Export: true},
	{Name: "core.prepare_ms", Unit: "ms", Export: true},
	{Name: "core.mine_ms", Unit: "ms", Export: true},
	{Name: "core.l1_ms", Unit: "ms", Export: true},
	{Name: "core.l2_ms", Unit: "ms", Export: true},
	{Name: "core.lk_ms", Unit: "ms"},
	{Name: "core.l2_candidates", Unit: "count", Export: true},
	{Name: "core.lk_candidates", Unit: "count"},
	{Name: "core.lk_yield", Unit: "ratio"},
	{Name: "core.pruned_apriori_share", Unit: "ratio"},
	{Name: "core.pruned_trans_share", Unit: "ratio"},
	{Name: "core.occurrences", Unit: "count"},
	{Name: "core.alloc_mb", Unit: "MB", Export: true},
	{Name: "store.seal_ms", Unit: "ms"},
	{Name: "store.seal_bytes", Unit: "B"},
	{Name: "store.segment_open_ms", Unit: "ms"},
	{Name: "store.wal_append_ms", Unit: "ms"},
	{Name: "store.replay_ms", Unit: "ms"},
	{Name: "store.replay_records", Unit: "count"},
	{Name: "export.document_ms", Unit: "ms", Export: true},
	{Name: "export.encode_ms", Unit: "ms", Export: true},
	{Name: "export.doc_bytes", Unit: "B", Export: true},
	{Name: "server.unaccounted_ms", Unit: "ms", Export: true},
}

// metricOut is one measured value.
type metricOut struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// mb is the byte count of one MB in every *_mb metric.
const mb = 1 << 20
