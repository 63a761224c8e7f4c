package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/serve"
)

const (
	joinWhy  = "Join kernels alone: in-process core.System.QueryCtx, 1 closed-loop client, 2x6000 instances, 3-4 conjunct ~10k-row joins; no cache, no writes, unbounded memory; SLO 25 ms"
	chainWhy = "Joins under the memory governor: serve.Service, cache off, 2 closed-loop clients, depth-5 fan-out-3 chain on 2x1280 instances, 8 MB per query, 12 MB admission pool; SLO 200 ms"
)

// setupReps is how many times an in-process workload builds its world;
// setup_s is the median.
const setupReps = 7

// inprocSpec is one in-process closed-loop workload.
type inprocSpec struct {
	clients int
	slo     time.Duration
	texts   [][]string // per client
	layer   string     // name of the layer whose public function is called
	call    func(ctx context.Context, text string) (*query.Result, error)
	// direct, when set, runs the same query straight on the engine; the
	// traced run alternates it with call after the timed loop, to split
	// the called layer's own overhead from the engine's execution time.
	direct func(ctx context.Context, text string) (*query.Result, error)
	svc    *serve.Service // for Stats deltas; nil when calling core
}

// inprocOp is one completed operation.
type inprocOp struct {
	text    string
	dur     time.Duration
	err     error
	traced  bool
	callDur time.Duration // the layer span, traced operations only
	stats   query.Stats
	rows    int
	mallocs uint64
	bytes   uint64
}

// buildInproc builds a fresh system setupReps times, timing world load,
// articulation and the first cold plan, and returns the last system.
func buildInproc(rep *report, build func(sys *core.System) (worldStats, error), art, firstText string, opts query.Options) (*core.System, error) {
	var sys *core.System
	var setups, artic []float64
	var ws worldStats
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		s := core.NewSystem()
		var err error
		if ws, err = build(s); err != nil {
			return nil, err
		}
		if _, err := s.QueryCtx(context.Background(), art, firstText, opts); err != nil {
			return nil, fmt.Errorf("first query: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		artic = append(artic, ms(float64(ws.articulate)))
		sys = s
	}
	rep.e2e["setup_s"] = medianOf(setups)
	rep.layer["core.articulate_ms"] = medianOf(artic)
	rep.layer["kb.add_ns_per_fact"] = ratio(float64(ws.addNs), float64(ws.facts))
	rep.note("setup: %d builds of %d facts, median %.3fs", setupReps, ws.facts, rep.e2e["setup_s"])
	return sys, nil
}

// oracleDigests answers every text once with the sequential reference
// executor.
func oracleDigests(sys *core.System, art string, texts []string) (map[string]digest, error) {
	out := make(map[string]digest, len(texts))
	for _, t := range texts {
		res, err := sys.QueryCtx(context.Background(), art, t, query.Options{Sequential: true})
		if err != nil {
			return nil, fmt.Errorf("oracle %q: %w", t, err)
		}
		out[t] = digestRows(res.Vars, res.Rows)
	}
	return out, nil
}

type gcSample struct{ cycles, gcCPU, totalCPU float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindUint64 {
			return float64(v.Uint64())
		}
		if v.Kind() == metrics.KindFloat64 {
			return v.Float64()
		}
		return 0
	}
	return gcSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// driveInproc runs the closed loop for cfg.seconds, checks every answer
// against oracle, and fills the report.
func driveInproc(cfg runConfig, rep *report, spec inprocSpec, oracle map[string]digest) error {
	tr := rep.tracer
	ctx := context.Background()
	rngs := make([]*rand.Rand, spec.clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(cfg.seed*1000 + int64(c)))
	}
	var mu sync.Mutex
	var ops []inprocOp
	var opSeq int
	var st0 serve.Stats
	if spec.svc != nil {
		st0 = spec.svc.Stats()
	}
	peakNote := resetPeakRSS()
	gc0 := readGC()
	busy := closedLoop(spec.clients, cfg.seconds, func(c, seq int) time.Duration {
		texts := spec.texts[c]
		text := texts[rngs[c].Intn(len(texts))]
		op := inprocOp{text: text, traced: tr != nil && seq%2 == 0}
		mu.Lock()
		id := opSeq
		opSeq++
		mu.Unlock()
		var res *query.Result
		if op.traced {
			var m0, m1 runtime.MemStats
			start := time.Now()
			opSpan := tr.begin("bench", id, -1)
			runtime.ReadMemStats(&m0)
			callSpan := tr.begin(spec.layer, id, opSpan)
			t0 := time.Now()
			res, op.err = spec.call(ctx, text)
			op.callDur = time.Since(t0)
			tr.end(callSpan)
			runtime.ReadMemStats(&m1)
			tr.end(opSpan)
			op.dur = time.Since(start)
			op.mallocs, op.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		} else {
			t0 := time.Now()
			res, op.err = spec.call(ctx, text)
			op.dur = time.Since(t0)
		}
		// Checking stays outside the timed span.
		correct := false
		if op.err == nil {
			op.stats, op.rows = res.Stats, len(res.Rows)
			correct = digestRows(res.Vars, res.Rows) == oracle[text]
		}
		mu.Lock()
		ops = append(ops, op)
		if op.err == nil {
			rep.counts.addCheck(correct)
		} else {
			rep.counts.addErr(op.err)
		}
		mu.Unlock()
		return op.dur
	})
	gc1 := readGC()
	var st1 serve.Stats
	if spec.svc != nil {
		st1 = spec.svc.Stats()
	}

	// End to end: latency, throughput and the SLO share over every
	// operation, traced or not.
	var lat []float64
	within := 0
	for _, op := range ops {
		lat = append(lat, ms(float64(op.dur)))
		if op.err == nil && op.dur <= spec.slo {
			within++
		}
	}
	d := newDist(lat)
	p50, err := d.median()
	if err != nil {
		return fmt.Errorf("query latency: %w", err)
	}
	p95, err := d.percentile(0.95)
	if err != nil {
		return fmt.Errorf("query latency: %w", err)
	}
	qps := 0.0
	for c := range busy {
		var sum time.Duration
		for _, b := range busy[c] {
			sum += b
		}
		qps += ratio(float64(len(busy[c])), sum.Seconds())
	}
	rep.e2e["query_p50_ms"] = p50
	rep.layer["e2e.query_p95_ms"] = p95
	rep.e2e["queries_per_s"] = qps
	rep.e2e["within_slo_ratio"] = ratio(float64(within), float64(len(ops)))
	rep.e2e["peak_rss_mb"] = peakRSSMB(0)
	rep.note("peak RSS: %s", peakNote)
	rep.note("queries: %d samples (%d beyond p95), p95 %.3f ms, %d clients, closed loop; SLO %v", d.n(), beyond(d.n(), 0.95), p95, spec.clients, spec.slo)
	if tr == nil {
		return nil
	}

	// Per layer, from the traced half of the operations.
	var callDur []float64
	var oh []overheadSample
	var rows, batches, batchRows, factRows, mallocs, bytes float64
	var spilled, hybrid, projSp, runs, spillBytes float64
	var peakReserved int64
	n := 0.0
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		oh = append(oh, overheadSample{key: op.text, traced: op.traced, dur: float64(op.dur)})
		if !op.traced {
			continue
		}
		n++
		callDur = append(callDur, float64(op.callDur))
		rows += float64(op.rows)
		batches += float64(op.stats.Batches)
		batchRows += float64(op.stats.BatchRows)
		factRows += float64(op.stats.FactRows)
		mallocs += float64(op.mallocs)
		bytes += float64(op.bytes)
		spilled += float64(op.stats.SpilledPartitions)
		hybrid += float64(op.stats.HybridJoins)
		projSp += float64(op.stats.ProjectionSpills)
		runs += float64(op.stats.SpillRuns)
		spillBytes += float64(op.stats.SpilledBytes)
		peakReserved = max(peakReserved, op.stats.BytesReserved)
	}
	exec := medianOf(callDur)
	if spec.direct != nil {
		// Each pair runs one text both ways from a freshly collected heap,
		// alternating which goes first; the overhead is the median paired
		// difference.
		var via, direct []float64
		timeCall := func(f func(context.Context, string) (*query.Result, error), text string, into *[]float64) error {
			t0 := time.Now()
			_, err := f(ctx, text)
			*into = append(*into, float64(time.Since(t0)))
			return err
		}
		for i := 0; i < 64; i++ {
			text := spec.texts[0][i%len(spec.texts[0])]
			runtime.GC() // no collection lands inside a pair
			first, second := spec.call, spec.direct
			fInto, sInto := &via, &direct
			if i%2 == 1 {
				first, second, fInto, sInto = second, first, sInto, fInto
			}
			if err := timeCall(first, text, fInto); err != nil {
				return fmt.Errorf("paired engine run: %w", err)
			}
			if err := timeCall(second, text, sInto); err != nil {
				return fmt.Errorf("paired engine run: %w", err)
			}
		}
		diffs := make([]float64, len(via))
		for i := range via {
			diffs[i] = via[i] - direct[i]
		}
		exec = medianOf(direct)
		rep.layer["core.query_overhead_us"] = medianOf(diffs) / 1e3
	}
	rep.layer["query.exec_p50_ms"] = ms(exec)
	rep.layer["query.ns_per_row"] = ratio(exec, rows/n)
	rep.layer["query.allocs_per_row"] = ratio(mallocs, rows)
	rep.layer["query.bytes_per_row"] = ratio(bytes, rows)
	rep.layer["query.batch_fill"] = ratio(batchRows, batches)
	rep.layer["query.fact_rows_per_result_row"] = ratio(factRows, rows)
	rep.layer["query.peak_reserved_mb"] = float64(peakReserved) / (1 << 20)
	rep.layer["query.spilled_partitions_per_query"] = ratio(spilled, n)
	rep.layer["query.hybrid_joins_per_query"] = ratio(hybrid, n)
	rep.layer["query.projection_spills_per_query"] = ratio(projSp, n)
	rep.layer["query.spill_runs_per_query"] = ratio(runs, n)
	rep.layer["query.spilled_bytes_per_query"] = ratio(spillBytes, n)
	rep.layer["runtime.gc_cycles_per_query"] = ratio(gc1.cycles-gc0.cycles, float64(len(ops)))
	rep.layer["runtime.gc_cpu_fraction"] = ratio(gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU)
	rep.layer["bench.trace_overhead_pct"] = overheadPct(oh)
	self := tr.selfNs()
	rep.layer["self.bench_us_per_op"] = ratio(float64(self["bench"]), n) / 1e3
	rep.layer["self."+spec.layer+"_us_per_op"] = ratio(float64(self[spec.layer]), n) / 1e3
	if spec.svc != nil {
		admitted := float64(st1.Admitted - st0.Admitted)
		rep.layer["serve.admission_wait_ms"] = ratio(ms(float64(st1.QueueWaitNs-st0.QueueWaitNs)), admitted)
		rep.layer["serve.degraded_ratio"] = ratio(float64(st1.DegradedGrants-st0.DegradedGrants), admitted)
		rep.layer["serve.shed_ratio"] = ratio(float64(st1.Shed-st0.Shed), float64(len(ops)))
		rep.note("serve: admitted %d, degraded %d, queued %d, shed %d", st1.Admitted-st0.Admitted,
			st1.DegradedGrants-st0.DegradedGrants, st1.Queued-st0.Queued, st1.Shed-st0.Shed)
	}
	rep.note("traced: %d of %d operations; spilled partitions per query %.2f (a count that varies run to run is reported as found)",
		int(n), len(ops), ratio(spilled, n))
	return nil
}

func runJoinAnalytic(cfg runConfig, rep *report) error {
	const art = "jart"
	opts := query.Options{}
	sys, err := buildInproc(rep, func(s *core.System) (worldStats, error) {
		return itemWorld(s, "j", joinPreds, 6000, cfg.seed, joinInstance)
	}, art, joinTexts[0], opts)
	if err != nil {
		return err
	}
	oracle, err := oracleDigests(sys, art, joinTexts)
	if err != nil {
		return err
	}
	// Warm every plan before timing.
	for _, t := range joinTexts {
		if _, err := sys.QueryCtx(context.Background(), art, t, opts); err != nil {
			return err
		}
	}
	eng, err := sys.QueryEngine(art)
	if err != nil {
		return err
	}
	rep.header = append(rep.header, "join-analytic: 1 client, closed loop, memory unbounded, result cache none (core.System has none), plan cache warm")
	return driveInproc(cfg, rep, inprocSpec{
		clients: 1, slo: 25 * time.Millisecond,
		texts: [][]string{joinTexts},
		layer: "core",
		call: func(ctx context.Context, text string) (*query.Result, error) {
			return sys.QueryCtx(ctx, art, text, opts)
		},
		direct: func(ctx context.Context, text string) (*query.Result, error) {
			q, err := query.Parse(text)
			if err != nil {
				return nil, err
			}
			return eng.ExecuteCtx(ctx, q, opts)
		},
	}, oracle)
}

// Capped-chain limits: each query may use chainQueryMem, and the
// admission pool holds less than two such grants, so a second concurrent
// query takes the ladder's degraded rung.
const (
	chainQueryMem = 8 << 20
	chainPoolMem  = 12 << 20
)

// chainThresholds are the FILTER thresholds on ?v0 (L1 values lie in
// [0, 1200)).
var chainThresholds = []int{-1, 300, 600}

func runCappedChain(cfg runConfig, rep *report) error {
	const art, clients = "cart", 2
	opts := query.Options{MemoryLimit: chainQueryMem, SpillDir: filepath.Join(cfg.dir, "spill")}
	if err := mkdir(opts.SpillDir); err != nil {
		return err
	}
	texts := make([][]string, clients)
	var all []string
	for c := range texts {
		texts[c] = chainTexts(c, chainThresholds)
		all = append(all, texts[c]...)
	}
	sys, err := buildInproc(rep, func(s *core.System) (worldStats, error) {
		return itemWorld(s, "c", chainPreds, 1280, cfg.seed, chainInstance)
	}, art, all[0], opts)
	if err != nil {
		return err
	}
	oracle, err := oracleDigests(sys, art, all)
	if err != nil {
		return err
	}
	svc := serve.New(sys, serve.Options{CacheEntries: -1, Exec: opts, AdmissionCapBytes: chainPoolMem})
	for _, t := range all {
		if _, _, err := svc.QueryOutcome(context.Background(), art, t); err != nil {
			return err
		}
	}
	rep.header = append(rep.header, fmt.Sprintf("capped-chain: %d clients, closed loop, result cache off, per-query memory %d MB, admission pool %d MB",
		clients, chainQueryMem>>20, chainPoolMem>>20))
	return driveInproc(cfg, rep, inprocSpec{
		clients: clients, slo: 200 * time.Millisecond,
		texts: texts,
		layer: "serve",
		call: func(ctx context.Context, text string) (*query.Result, error) {
			res, _, err := svc.QueryOutcome(ctx, art, text)
			return res, err
		},
		svc: svc,
	}, oracle)
}
