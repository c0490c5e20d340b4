package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"procmine"

	"procmine/internal/conformance"
	"procmine/internal/core"
	"procmine/internal/graph"
	"procmine/internal/synth"
	"procmine/internal/wlog"
)

// Workload shapes. Each workload's process model is fixed, generated from
// a constant seed, so every seed yields a log of the same size and shape;
// the benchmark's seed drives only the simulated executions. The DAG pool
// simulates the ROADMAP re-anchor's model (`loggen -source random -vertices
// 100 -seed 7`); the cyclic log adds back edges to a DAG of the same kind
// so Algorithm 3 labels loop iterations apart.
const (
	dagModelSeed   = 7
	cycModelSeed   = 1998
	poolVertices   = 100
	poolExecutions = 20000
	cycBackEdges   = 60
	cycMaxIter     = 12
	cycExecutions  = 5000
	setupReps      = 3 // set-ups per run; setup_s is their median
	tracedPasses   = 3 // traced passes per -trace 1 run
	checkPasses    = 1 // diagnostics passes per -trace 0 run (for the checks)
)

// batchSpec is one file→model workload, mined by the CLI's default path:
// ReadLogFileWith → Validate → MineContext.
type batchSpec struct {
	name     string
	file     string // the extension selects the codec, as in the CLI
	format   procmine.LogFormat
	generate func(seed int64) (*wlog.Log, map[string]any, error)
	verify   func(r *report, g *graph.Digraph, mined, generated *wlog.Log, diag *core.Diagnostics) error
}

var (
	textSpec = batchSpec{
		name: batchText, file: "batch-text.txt", format: procmine.FormatText,
		generate: func(seed int64) (*wlog.Log, map[string]any, error) { return dagPool(seed) },
		verify:   verifyConformal,
	}
	csvCyclicSpec = batchSpec{
		name: batchCSV, file: "batch-csv-cyclic.csv", format: procmine.FormatCSV,
		generate: cyclicLog,
		verify:   verifyCyclic,
	}
)

// dagPool is a random n=100 DAG at the paper's density, simulated for
// 20,000 executions.
func dagPool(seed int64) (*wlog.Log, map[string]any, error) {
	mrng := rand.New(rand.NewSource(dagModelSeed))
	g := synth.RandomDAG(mrng, poolVertices, synth.PaperEdgeProb(poolVertices))
	sim, err := synth.NewSimulator(g, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	params := map[string]any{"model_seed": dagModelSeed, "vertices": poolVertices, "model_edges": g.NumEdges(), "executions": poolExecutions}
	return sim.GenerateLog("r_", poolExecutions), params, nil
}

// cyclicLog is a random n=100 DAG with back edges between interior
// vertices, simulated through its unrolling.
func cyclicLog(seed int64) (*wlog.Log, map[string]any, error) {
	mrng := rand.New(rand.NewSource(cycModelSeed))
	g := synth.RandomDAG(mrng, poolVertices, synth.PaperEdgeProb(poolVertices))
	for added := 0; added < cycBackEdges; {
		i, j := 1+mrng.Intn(poolVertices-2), 1+mrng.Intn(poolVertices-2)
		if i <= j {
			continue
		}
		from, to := synth.ActivityName(i), synth.ActivityName(j)
		if g.HasEdge(from, to) {
			continue
		}
		g.AddEdge(from, to)
		added++
	}
	cs, err := synth.NewCyclicSimulator(g, cycMaxIter, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	params := map[string]any{
		"model_seed": cycModelSeed, "vertices": poolVertices, "model_edges": g.NumEdges(), "back_edges": cycBackEdges,
		"max_iterations": cycMaxIter, "executions": cycExecutions,
	}
	return cs.GenerateLog("c_", cycExecutions), params, nil
}

// graphSum is the sha256 of the graph's adjacency listing, the CLI's
// default output.
func graphSum(g *graph.Digraph) (string, error) {
	h := sha256.New()
	if err := g.WriteAdjacency(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cliPass is one untraced file→model pass, the calls cmd/procmine makes.
type cliPass struct {
	read, total time.Duration
	cpu         time.Duration
	alloc       uint64
	log         *wlog.Log
	g           *graph.Digraph
}

func runCLIPass(path string) (cliPass, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	c0 := cpuTime()
	t0 := time.Now()
	log, _, err := procmine.ReadLogFileWith(path, procmine.IngestOptions{})
	if err != nil {
		return cliPass{}, fmt.Errorf("reading %s: %w", path, err)
	}
	if err := log.Validate(); err != nil {
		return cliPass{}, fmt.Errorf("invalid log: %w", err)
	}
	t1 := time.Now()
	g, err := procmine.MineContext(context.Background(), log, procmine.Options{})
	t2 := time.Now()
	c2 := cpuTime()
	if err != nil {
		return cliPass{}, fmt.Errorf("mining: %w", err)
	}
	runtime.ReadMemStats(&ms)
	return cliPass{read: t1.Sub(t0), total: t2.Sub(t0), cpu: c2 - c0, alloc: ms.TotalAlloc - before, log: log, g: g}, nil
}

// stageSpanName names a Diagnostics stage by the layer that owns it.
func stageSpanName(stage string) string {
	if stage == "columnar" {
		return "wlog.columnar"
	}
	return "core." + stage
}

// tracedPass is the same file→model pass split at the layer boundaries
// ReadLogWith hides (decode, then assemble) and mined with
// MineWithDiagnosticsContext, so each layer gets a span.
type tracedPass struct {
	total time.Duration
	spans map[string]Span // top-level spans by name
	log   *wlog.Log
	g     *graph.Digraph
	diag  *core.Diagnostics
}

func runTracedPass(path string, format procmine.LogFormat, tr *tracer) (tracedPass, error) {
	out := tracedPass{spans: map[string]Span{}}
	t0 := time.Now()
	pass := tr.start("bench.pass", nil, true)
	f, err := os.Open(path)
	if err != nil {
		return out, err
	}
	defer f.Close()
	opts := wlog.IngestOptions{}
	rep := wlog.NewIngestReport(opts)
	var events []wlog.Event
	sp := tr.start("wlog.decode", pass, true)
	switch format {
	case procmine.FormatText:
		events, rep, err = wlog.ReadTextWith(f, opts, rep)
	case procmine.FormatCSV:
		events, rep, err = wlog.ReadCSVWith(f, opts, rep)
	default:
		err = fmt.Errorf("no traced decoder for format %d", format)
	}
	out.spans["wlog.decode"] = sp.end()
	if err != nil {
		return out, fmt.Errorf("decoding %s: %w", path, err)
	}
	sp = tr.start("wlog.assemble", pass, true)
	out.log, _, err = wlog.AssembleWith(events, opts, rep)
	out.spans["wlog.assemble"] = sp.end()
	if err != nil {
		return out, fmt.Errorf("assembling %s: %w", path, err)
	}
	sp = tr.start("wlog.validate", pass, false)
	err = out.log.Validate()
	out.spans["wlog.validate"] = sp.end()
	if err != nil {
		return out, fmt.Errorf("invalid log: %w", err)
	}
	sp = tr.start("core.mine", pass, true)
	out.g, out.diag, err = core.MineWithDiagnosticsContext(context.Background(), out.log, core.Options{})
	mine := sp.end()
	out.spans["core.mine"] = mine
	if err != nil {
		return out, fmt.Errorf("mining: %w", err)
	}
	tr.attachStages(mine, out.diag.Stages, stageSpanName)
	out.spans["bench.pass"] = pass.end()
	out.total = time.Since(t0)
	return out, nil
}

// stageSeconds finds a top-level Diagnostics stage's duration.
func stageSeconds(d *core.Diagnostics, name string) float64 {
	for _, st := range d.Stages {
		if st.Name == name {
			return st.Seconds
		}
	}
	return 0
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runBatch runs a file→model workload: set-up, the timed phase, then the
// diagnostics passes that the checks (and, traced, the per-layer metrics)
// come from.
func runBatch(spec batchSpec, r *report, tr *tracer) error {
	gen, params, err := spec.generate(r.cfg.seed)
	if err != nil {
		return fmt.Errorf("generating %s: %w", spec.name, err)
	}
	path := filepath.Join(r.cfg.work, spec.file)
	if err := procmine.WriteLogFile(path, gen); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	st := gen.ComputeStats()
	events := st.Events
	params["events"] = events
	params["activities"] = st.Activities
	params["file_bytes"] = fi.Size()
	params["file"] = spec.file
	r.prov["workload_params"] = params

	// want is the adjacency sha256 every pass must reproduce.
	var want string
	agree := func(g *graph.Digraph, what string) {
		sum, err := graphSum(g)
		switch {
		case err != nil:
			r.check("graph_sum", false, "%s: %v", what, err)
		case want == "":
			want = sum
		case sum != want:
			r.check("passes_agree", false, "%s: edge-list sha256 %s, first pass %s", what, sum, want)
		}
	}

	// Set-up: a file→model pass on a heap just returned to the OS, what a
	// fresh CLI process pays before its heap has grown.
	var setup sample
	for i := 0; i < setupReps; i++ {
		debug.FreeOSMemory()
		p, err := runCLIPass(path)
		r.op(err)
		if err != nil {
			continue
		}
		setup = append(setup, p.total.Seconds())
		agree(p.g, "set-up pass")
	}

	// Timed phase, untraced: back-to-back CLI passes, each from a collected
	// heap.
	base := heapAlloc()
	var read, total, alloc, cpu sample
	var last cliPass
	for deadline := time.Now().Add(r.cfg.seconds); time.Now().Before(deadline); {
		last = cliPass{}
		runtime.GC()
		p, err := runCLIPass(path)
		r.op(err)
		if err != nil {
			continue
		}
		last = p
		read = append(read, ms(p.read))
		total = append(total, ms(p.total))
		alloc = append(alloc, float64(p.alloc))
		cpu = append(cpu, float64(p.cpu.Microseconds()))
		agree(p.g, "timed pass")
	}
	if len(total) == 0 {
		return fmt.Errorf("no timed pass succeeded")
	}
	live := heapAlloc()
	runtime.KeepAlive(last.log)
	runtime.KeepAlive(last.g)

	r.set("setup_s", setup.median(), len(setup))
	r.setTiming("model_p50_ms", "model_tail_ms", total)
	r.setTiming("ingest_p50_ms", "ingest_tail_ms", read)
	r.set("ingest_events_per_s", float64(events)/(read.median()/1e3), len(read))
	r.set("alloc_b_per_event", alloc.median()/float64(events), len(alloc))
	r.set("heap_mb", float64(live-base)/1e6, 1)
	r.set("cpu_us_per_event", cpu.median()/float64(events), len(cpu))

	// Diagnostics passes: traced ones give the per-layer metrics; every run
	// makes at least one, for the checks.
	ctr, passes := tr, tracedPasses
	if ctr == nil {
		ctr, passes = newTracer("check"), checkPasses
	}
	var tp tracedPass
	layer := map[string]sample{}
	var traced sample
	for i := 0; i < passes; i++ {
		runtime.GC()
		tp, err = runTracedPass(path, spec.format, ctr)
		r.op(err)
		if err != nil {
			return err
		}
		traced = append(traced, tp.total.Seconds())
		agree(tp.g, "traced pass")
		for _, n := range []string{"wlog.decode", "wlog.assemble"} {
			layer[n+"_s"] = append(layer[n+"_s"], tp.spans[n].seconds())
			layer[n+"_allocs"] = append(layer[n+"_allocs"], float64(tp.spans[n].Allocs))
		}
		for _, st := range []string{"label", "columnar", "scan", "threshold", "scc", "mark", "reduce"} {
			name := stageSpanName(st) + "_s"
			layer[name] = append(layer[name], stageSeconds(tp.diag, st))
		}
	}
	sum, err := graphSum(tp.g)
	if err != nil {
		return err
	}
	r.check("traced_equals_untraced", sum == want, "traced %s, untraced %s", sum, want)
	r.prov["edge_list_sha256"] = want
	passSec := tp.spans["bench.pass"].seconds()
	shares := map[string]float64{}
	for _, n := range []string{"wlog.decode", "wlog.assemble", "wlog.validate", "core.mine"} {
		shares[n] = tp.spans[n].seconds() / passSec
	}
	r.prov["time_shares"] = shares

	if err := spec.verify(r, tp.g, tp.log, gen, tp.diag); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	for name, s := range layer {
		r.set(name, s.median(), len(s))
	}
	r.set("wlog.events", float64(events), 1)
	r.set("core.activities", float64(tp.diag.Activities), 1)
	r.set("core.ordered_pairs", float64(tp.diag.OrderedPairs), 1)
	r.set("core.final_edges", float64(tp.diag.FinalEdges), 1)
	work := tp.log
	if tp.diag.Labeled {
		if work, err = core.LabelInstances(tp.log); err != nil {
			return err
		}
	}
	r.set("core.distinct_sets", float64(work.Columnar().NumSets()), 1)
	r.set("obs.trace_overhead_s", traced.median()-total.median()/1e3, len(traced))
	return nil
}

// verifyConformal checks Definition 7 on the acyclic, noise-free log.
func verifyConformal(r *report, g *graph.Digraph, mined, _ *wlog.Log, _ *core.Diagnostics) error {
	rep := conformance.Check(g, mined, synth.StartActivity, synth.EndActivity, core.Options{})
	r.check("conformal_definition_7", rep.Conformal(), "%s", rep.Summary())
	return nil
}

// verifyCyclic checks the file→model graph against Algorithm 3 run on the
// generated log in memory, and that the workload still exercises instance
// labeling.
func verifyCyclic(r *report, g *graph.Digraph, mined, generated *wlog.Log, diag *core.Diagnostics) error {
	ref, err := core.MineCyclicContext(context.Background(), generated, core.Options{})
	if err != nil {
		return fmt.Errorf("reference mine: %w", err)
	}
	got, err := graphSum(g)
	if err != nil {
		return err
	}
	exp, err := graphSum(ref)
	if err != nil {
		return err
	}
	r.check("equals_in_memory_mine_cyclic", got == exp, "file→model %s, in-memory MineCyclicContext %s", got, exp)
	raw := len(mined.Activities())
	r.check("shape_labeled", diag.Labeled && diag.Activities > raw,
		"labeled=%v, labeled alphabet %d, raw alphabet %d", diag.Labeled, diag.Activities, raw)
	r.prov["labeled_alphabet"] = diag.Activities
	r.prov["raw_alphabet"] = raw
	var loops []string
	for _, c := range diag.SCCs {
		loops = append(loops, fmt.Sprint(len(c)))
	}
	r.prov["labeled_scc_sizes"] = strings.Join(loops, ",")
	return nil
}
