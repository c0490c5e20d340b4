// Command perfbench is procmine's end-to-end benchmark. It generates a
// workload's inputs from a seed, drives the program through the same public
// entry points cmd/procmine and cmd/procmined use, checks the outputs, and
// prints every metric by name. Its last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (normally through perfbench/run.py, which builds this module):
//
//	perfbench -workload batch-text -seed 1 -seconds 12 -trace 0 -work DIR
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with -trace 1 the run also makes a traced pass over each layer
// and reports the per-layer metrics instead, writing its spans to
// DIR/trace-<workload>-<seed>.json. See README.md for why each workload
// exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef is one reported metric. For a per-layer metric, moves names
// the end-to-end metrics and workloads it should move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a user of the CLI or the service sees. Each is
// defined on every workload; README.md gives each workload's reading.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "model_p50_ms", unit: "ms"},
	{name: "model_tail_ms", unit: "ms"},
	{name: "ingest_events_per_s", unit: "1/s"},
	{name: "ingest_p50_ms", unit: "ms"},
	{name: "ingest_tail_ms", unit: "ms"},
	{name: "alloc_b_per_event", unit: "B"},
	{name: "heap_mb", unit: "MB"},
	{name: "cpu_us_per_event", unit: "us"},
}

const (
	batchText  = "batch-text"
	batchCSV   = "batch-csv-cyclic"
	serviceMix = "service-mixed"
	batchBoth  = "batch-text, batch-csv-cyclic"
	onService  = "service-mixed"
)

// perLayer are the traced run's metrics, each tagged with what it should
// move. A metric whose layer a workload does not exercise reads 0 there
// and is listed under provenance.not_exercised.
var perLayer = []metricDef{
	{"wlog.decode_s", "s", "model_p50_ms, ingest_p50_ms, alloc_b_per_event on batch-text (text codec), batch-csv-cyclic (CSV codec)"},
	{"wlog.decode_allocs", "count", "alloc_b_per_event, model_p50_ms on " + batchBoth},
	{"wlog.assemble_s", "s", "model_p50_ms, ingest_p50_ms on " + batchBoth},
	{"wlog.assemble_allocs", "count", "alloc_b_per_event on " + batchBoth},
	{"wlog.columnar_s", "s", "model_p50_ms on " + batchBoth},
	{"wlog.events", "count", "shape count, must not move (all workloads)"},
	{"core.label_s", "s", "model_p50_ms, mostly on " + batchCSV},
	{"core.scan_s", "s", "model_p50_ms on " + batchBoth},
	{"core.threshold_s", "s", "model_p50_ms, mostly on " + batchCSV},
	{"core.scc_s", "s", "model_p50_ms on " + batchBoth + " (graph layer)"},
	{"core.mark_s", "s", "model_p50_ms on " + batchBoth + " (graph layer)"},
	{"core.reduce_s", "s", "model_p50_ms, mostly on " + batchCSV + " (MergeInstances)"},
	{"core.activities", "count", "shape count, must not move (all workloads)"},
	{"core.distinct_sets", "count", "shape count, must not move (all workloads)"},
	{"core.ordered_pairs", "count", "shape count, must not move (" + batchBoth + ")"},
	{"core.final_edges", "count", "shape count, must not move (all workloads)"},
	{"wlog.stream_decode_us_per_event", "us", "ingest_events_per_s, ingest_p50_ms on " + onService},
	{"wlog.stream_push_us_per_event", "us", "ingest_events_per_s, ingest_p50_ms on " + onService},
	{"core.fold_us_per_exec", "us", "ingest_events_per_s, ingest_tail_ms on " + onService},
	{"core.fold_allocs_per_exec", "count", "ingest_events_per_s, alloc_b_per_event on " + onService},
	{"core.export_ms", "ms", "model_p50_ms, ingest_tail_ms on " + onService + " (runs under the shard mutex)"},
	{"core.restore_ms", "ms", "model_p50_ms on " + onService},
	{"core.inc_assemble_ms", "ms", "model_p50_ms, model_tail_ms on " + onService},
	{"core.inc_scc_ms", "ms", "model_p50_ms, model_tail_ms on " + onService},
	{"core.inc_mark_ms", "ms", "model_p50_ms, model_tail_ms on " + onService},
	{"core.inc_merge_ms", "ms", "model_p50_ms, model_tail_ms on " + onService},
	{"core.state_sigs", "count", "heap_mb, model_p50_ms on " + onService + "; must not move during a run"},
	{"core.state_pairs", "count", "heap_mb, model_p50_ms on " + onService},
	{"core.state_activities", "count", "heap_mb, model_p50_ms on " + onService},
	{"serve.ingest_server_ms_mean", "ms", "ingest_p50_ms on " + onService},
	{"serve.model_server_ms_mean", "ms", "model_p50_ms on " + onService},
	{"serve.model_unstaged_ms", "ms", "model_p50_ms on " + onService + " (export + restore + render)"},
	{"serve.http_overhead_ms", "ms", "ingest_events_per_s, ingest_p50_ms on " + onService},
	{"serve.shard_skew", "ratio", "ingest_events_per_s on " + onService},
	{"serve.rejected", "count", "failed count on " + onService + "; must be 0"},
	{"serve.decode_errors", "count", "failed count on " + onService + "; must be 0"},
	{"obs.trace_overhead_s", "s", "none: the cost of the traced run itself (all workloads)"},
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string
}

// check is one correctness or workload-shape check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report accumulates one run's metrics, checks and provenance.
type report struct {
	cfg       config
	values    map[string]float64
	samples   map[string]int     // observations behind each metric
	tailPct   map[string]float64 // percentile each *_tail_* metric stands for
	prov      map[string]any
	checks    []check
	attempted int
	failed    int
}

func newReport(cfg config) *report {
	return &report{
		cfg:     cfg,
		values:  map[string]float64{},
		samples: map[string]int{},
		tailPct: map[string]float64{},
		prov:    map[string]any{},
	}
}

// set records a metric and the number of observations behind it.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// setTiming records a timing sample's median and tail under the given
// names.
func (r *report) setTiming(p50, tail string, s sample) {
	r.set(p50, s.median(), len(s))
	v, pct := s.tail()
	r.set(tail, v, len(s))
	r.tailPct[tail] = pct
}

// check records a check; it counts as an attempted operation, and a failed
// one fails the run.
func (r *report) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
	r.checks = append(r.checks, c)
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %s\n", name, c.Detail)
	}
}

// op counts one attempted operation of the program, failed when err is
// non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// print writes one line per metric, the provenance and checks, and the
// result object as the last line.
func (r *report) print(w io.Writer) error {
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	res := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	var notExercised []string
	tags := map[string]string{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			if !r.cfg.trace {
				return fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			notExercised = append(notExercised, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a number", d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		if d.moves != "" {
			tags[d.name] = d.moves
		}
		line := fmt.Sprintf("metric %-34s %14.6g %-5s n=%d", d.name, v, d.unit, r.samples[d.name])
		if pct, ok := r.tailPct[d.name]; ok {
			line += fmt.Sprintf(" p%.1f", pct)
		}
		if !ok {
			line += " (not exercised)"
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	r.prov["go_version"] = runtime.Version()
	r.prov["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.prov["num_cpu"] = runtime.NumCPU()
	r.prov["seed"] = r.cfg.seed
	r.prov["workload"] = r.cfg.workload
	r.prov["seconds"] = r.cfg.seconds.Seconds()
	r.prov["trace"] = r.cfg.trace
	r.prov["samples"] = r.samples
	r.prov["tail_percentiles"] = r.tailPct
	r.prov["checks"] = r.checks
	r.prov["error_ratio"] = float64(r.failed) / float64(max(r.attempted, 1))
	if r.cfg.trace {
		sort.Strings(notExercised)
		r.prov["not_exercised"] = notExercised
		r.prov["moves"] = tags
	}
	prov, err := json.Marshal(r.prov)
	if err != nil {
		return fmt.Errorf("encoding provenance: %w", err)
	}
	if _, err := fmt.Fprintf(w, "provenance %s\n", prov); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	var cfg config
	var secs, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+batchText+", "+batchCSV+" or "+serviceMix)
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&secs, "seconds", 12, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run; 0 reports end-to-end metrics untraced")
	flag.StringVar(&cfg.work, "work", "", "directory for generated inputs and trace output")
	flag.Parse()
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.work == "" || cfg.seconds <= 0 {
		return fmt.Errorf("need -work DIR and -seconds > 0")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	r := newReport(cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano()))
	}
	var err error
	switch cfg.workload {
	case batchText:
		err = runBatch(textSpec, r, tr)
	case batchCSV:
		err = runBatch(csvCyclicSpec, r, tr)
	case serviceMix:
		err = runService(r, tr)
	default:
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		self, err := writeTrace(path, tr, cfg.workload, cfg.seed)
		if err != nil {
			return err
		}
		r.prov["trace_file"] = path
		r.prov["self_seconds_by_layer"] = self
	}
	if err := r.print(os.Stdout); err != nil {
		return err
	}
	if !r.correct() {
		return fmt.Errorf("%d of %d operations or checks failed", r.failed, r.attempted)
	}
	return nil
}
