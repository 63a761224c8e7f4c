package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/kb"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/vfs"
)

// Transport-serve load. The offered rate keeps the daemon well below
// saturation on two CPUs, so latency reflects service time plus the
// queueing a stall causes, not a growing backlog.
const (
	transportRate  = 80 // requests per second offered
	transportConns = 2
	transportSLO   = 50 * time.Millisecond
	setupRestarts  = 9 // daemon restarts timed for setup_s; the median is reported
	transportWhy   = "Paper's query path under serving load: oniond -fig2 -data-dir, loopback HTTP open loop 80 req/s on 2 conns, Zipf over 1536 texts (>1024 RAM cache), 10% 30-fact mutations; SLO 50 ms"
	flushPolicy    = "fact log: one write(2) per fact, no fsync per append; fsync of file and directory on each snapshot (every 65536 log records per source)"
)

// httpResult is one request's outcome.
type httpResult struct {
	status int
	body   []byte
	err    error
}

type transportClient struct {
	http *http.Client
	base string
}

func newTransportClient(base string) *transportClient {
	tr := &http.Transport{MaxConnsPerHost: transportConns, MaxIdleConnsPerHost: transportConns, DisableCompression: true}
	return &transportClient{http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

// post sends one request and reads the whole body.
func (c *transportClient) post(path string, body []byte) httpResult {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return httpResult{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return httpResult{status: resp.StatusCode, body: b, err: err}
}

func queryBody(text string) []byte {
	b, _ := json.Marshal(map[string]string{"articulation": fixtures.ArtName, "query": text})
	return b
}

func mutateBody(source string, facts []kb.Fact) []byte {
	type value struct {
		Kind  string `json:"kind"`
		Value any    `json:"value"`
	}
	type fact struct {
		Subject   string `json:"subject"`
		Predicate string `json:"predicate"`
		Object    value  `json:"object"`
	}
	req := struct {
		Source string `json:"source"`
		Facts  []fact `json:"facts"`
	}{Source: source}
	for _, f := range facts {
		v := value{Kind: "term", Value: f.Object.Str}
		switch f.Object.Kind {
		case kb.KindNumber:
			v = value{Kind: "number", Value: f.Object.Num}
		case kb.KindString:
			v.Kind = "string"
		}
		req.Facts = append(req.Facts, fact{Subject: f.Subject, Predicate: f.Predicate, Object: v})
	}
	b, _ := json.Marshal(req)
	return b
}

// ackedAdded reports whether a /mutate answer acknowledged every fact.
func ackedAdded(r httpResult, want int) bool {
	if r.err != nil || r.status != http.StatusOK {
		return false
	}
	var a struct {
		Added int `json:"added"`
	}
	return json.Unmarshal(r.body, &a) == nil && a.Added == want
}

// transportRun is the state of one transport-serve run.
type transportRun struct {
	cfg     runConfig
	rep     *report
	stream  transportStream
	growth  map[string][][]kb.Fact
	acked   map[string][]kb.Fact // every acknowledged fact, per source, in order
	dataDir string
	logPath string
	d       *daemon
}

func runTransport(cfg runConfig, rep *report) error {
	n := transportRate * int(cfg.seconds/time.Second)
	t := &transportRun{
		cfg: cfg, rep: rep,
		stream:  newTransportStream(cfg.seed, n),
		growth:  map[string][][]kb.Fact{},
		acked:   map[string][]kb.Fact{},
		dataDir: filepath.Join(cfg.dir, "data"),
		logPath: filepath.Join(cfg.dir, "oniond.log"),
	}
	for _, src := range []string{"carrier", "factory"} {
		t.growth[src] = growFacts(src, cfg.seed)
	}
	rep.header = append(rep.header,
		fmt.Sprintf("transport-serve: offered %d req/s, open loop on %d connections, latency limit %v, %d distinct texts vs serve.DefaultCacheEntries %d",
			transportRate, transportConns, transportSLO, distinctTexts, serve.DefaultCacheEntries),
		"flush policy: "+flushPolicy)
	defer func() { t.d.kill() }()
	if err := t.httpPhase(); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	t.d.kill()
	if err := t.measureRecovery(); err != nil {
		return err
	}
	return t.replayInProcess()
}

// httpPhase prepares the data dir, times restarts, drives the timed
// load and checks every distinct text before and after a kill -9.
func (t *transportRun) httpPhase() error {
	rep := t.rep
	var err error
	var phases []string
	mark := time.Now()
	phase := func(name string) {
		phases = append(phases, fmt.Sprintf("%s %.1fs", name, time.Since(mark).Seconds()))
		mark = time.Now()
	}
	if t.d, _, err = startDaemon(t.cfg.oniond, t.dataDir, t.logPath); err != nil {
		return err
	}
	c := newTransportClient(t.d.base)
	for _, src := range []string{"carrier", "factory"} {
		for _, batch := range t.growth[src] {
			r := c.post("/mutate", mutateBody(src, batch))
			if !ackedAdded(r, len(batch)) {
				return fmt.Errorf("set-up /mutate on %s: status %d err %v: %s", src, r.status, r.err, r.body)
			}
			t.acked[src] = append(t.acked[src], batch...)
		}
	}
	phase("grow")
	// Set-up time is recovery: restart on the prepared dir until ready.
	// SIGKILL keeps the logs unfolded, so every restart replays them.
	var setups []float64
	for i := 0; i < setupRestarts; i++ {
		t.d.kill()
		var ready time.Duration
		if t.d, ready, err = startDaemon(t.cfg.oniond, t.dataDir, t.logPath); err != nil {
			return err
		}
		setups = append(setups, ready.Seconds())
	}
	rep.e2e["setup_s"] = medianOf(setups)
	rep.note("setup: %d restarts on %d + %d logged facts, median %.3fs to /readyz 200", setupRestarts,
		len(t.acked["carrier"]), len(t.acked["factory"]), rep.e2e["setup_s"])

	phase("restarts")
	c = newTransportClient(t.d.base)
	warm := make([][]byte, len(t.stream.Warmup))
	for i, text := range t.stream.Warmup {
		warm[i] = queryBody(text)
	}
	var warmFail atomic.Int64
	runParallel(len(warm), transportConns, func(i int) {
		if r := c.post("/query", warm[i]); r.err != nil || r.status != http.StatusOK {
			warmFail.Add(1)
		}
	})
	if warmFail.Load() > 0 {
		return fmt.Errorf("%d warm-up queries failed", warmFail.Load())
	}

	phase("warm-up")
	ops := t.stream.Ops
	bodies := make([][]byte, len(ops))
	for i, op := range ops {
		if op.Text != "" {
			bodies[i] = queryBody(op.Text)
		} else {
			bodies[i] = mutateBody(op.Source, op.Facts)
		}
	}
	results := make([]httpResult, len(ops))
	times := openLoop(len(ops), time.Second/transportRate, transportConns, func(i int) {
		path := "/query"
		if ops[i].Text == "" {
			path = "/mutate"
		}
		results[i] = c.post(path, bodies[i])
	})
	rep.e2e["peak_rss_mb"] = t.d.peakRSSMB()
	phase("load")

	// Account the timed stream; bodies are decoded only now, outside it.
	var qLat, mLat, late []float64
	within, queries, ok := 0, 0, 0
	var last time.Duration
	for i, op := range ops {
		r := results[i]
		lat := ms(float64(times[i].Latency()))
		late = append(late, ms(float64(times[i].Late())))
		last = max(last, times[i].End)
		if op.Text == "" {
			mLat = append(mLat, lat)
			switch {
			case ackedAdded(r, len(op.Facts)):
				rep.counts.OK++
			case r.err == nil && r.status == http.StatusOK:
				rep.counts.Failed++ // acknowledged, but not every fact was new
			default:
				rep.counts.addHTTP(r.status, r.err)
				continue
			}
			t.acked[op.Source] = append(t.acked[op.Source], op.Facts...)
			continue
		}
		queries++
		qLat = append(qLat, lat)
		rep.counts.addHTTP(r.status, r.err)
		if r.err == nil && r.status == http.StatusOK {
			ok++
			if times[i].Latency() <= transportSLO {
				within++
			}
		}
	}
	qd, md, ld := newDist(qLat), newDist(mLat), newDist(late)
	if rep.e2e["query_p50_ms"], err = qd.median(); err != nil {
		return fmt.Errorf("query latency: %w", err)
	}
	if rep.layer["e2e.query_p95_ms"], err = qd.percentile(0.95); err != nil {
		return fmt.Errorf("query latency: %w", err)
	}
	if rep.layer["e2e.query_p99_ms"], err = qd.percentile(0.99); err != nil {
		return fmt.Errorf("query latency: %w", err)
	}
	if rep.layer["e2e.mutate_p50_ms"], err = md.median(); err != nil {
		return fmt.Errorf("mutation latency: %w", err)
	}
	if rep.layer["e2e.mutate_p90_ms"], err = md.percentile(0.90); err != nil {
		return fmt.Errorf("mutation latency: %w", err)
	}
	rep.e2e["queries_per_s"] = ratio(float64(ok), last.Seconds())
	rep.e2e["within_slo_ratio"] = ratio(float64(within), float64(queries))
	lateP99, _ := ld.percentile(0.99)
	rep.note("queries: %d samples (%d beyond p95, %d beyond p99), p95 %.3f ms, p99 %.3f ms; mutations: %d samples (%d beyond p90); generator late p99 %.3f ms",
		qd.n(), beyond(qd.n(), 0.95), beyond(qd.n(), 0.99), rep.layer["e2e.query_p95_ms"], rep.layer["e2e.query_p99_ms"], md.n(), beyond(md.n(), 0.90), lateP99)

	live := len(t.acked["carrier"]) + len(t.acked["factory"]) + fixtures.CarrierKB().Len() + fixtures.FactoryKB().Len()
	stored, err := dirBytes(filepath.Join(t.dataDir, "sources"))
	if err != nil {
		return err
	}
	cacheBytes, _ := dirBytes(filepath.Join(t.dataDir, "cache"))
	rep.layer["e2e.stored_bytes_per_fact"] = ratio(float64(stored), float64(live))
	rep.note("storage: %d bytes of fact logs and snapshots for %d live facts; %d bytes in the disk cache tier", stored, live, cacheBytes)

	// Correctness: every distinct text, quiescent, then after kill -9.
	oracle, err := t.oracle()
	if err != nil {
		return err
	}
	t.checkAll(c, oracle, "quiescent")
	t.d.kill()
	if t.d, _, err = startDaemon(t.cfg.oniond, t.dataDir, t.logPath); err != nil {
		return err
	}
	c = newTransportClient(t.d.base)
	t.checkAll(c, oracle, "after kill -9")
	phase("checks")
	rep.note("phases: %s", strings.Join(phases, ", "))
	if t.cfg.trace {
		t.hitRoundTrips(c)
	}
	return nil
}

// runParallel runs do(0..n-1) on conns goroutines.
func runParallel(n, conns int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i)
			}
		}()
	}
	wg.Wait()
}

// oracle answers every distinct text on a library System holding the
// Fig. 2 world plus exactly the acknowledged facts.
func (t *transportRun) oracle() (map[string]digest, error) {
	sys := core.NewSystem()
	if _, err := loadFig2(sys); err != nil {
		return nil, err
	}
	for _, src := range []string{"carrier", "factory"} {
		if _, err := sys.AddFacts(src, t.acked[src]); err != nil {
			return nil, err
		}
	}
	texts := t.stream.Texts
	digests := make([]digest, len(texts))
	var failed atomic.Int64
	runParallel(len(texts), transportConns, func(i int) {
		res, err := sys.QueryCtx(context.Background(), fixtures.ArtName, texts[i], query.Options{})
		if err != nil {
			failed.Add(1)
			return
		}
		digests[i] = digestRows(res.Vars, res.Rows)
	})
	if failed.Load() > 0 {
		return nil, fmt.Errorf("oracle: %d queries failed", failed.Load())
	}
	out := make(map[string]digest, len(texts))
	for i, text := range texts {
		out[text] = digests[i]
	}
	return out, nil
}

// checkAll asks the daemon every distinct text and compares each answer
// with the oracle.
func (t *transportRun) checkAll(c *transportClient, oracle map[string]digest, phase string) {
	texts := t.stream.Texts
	results := make([]httpResult, len(texts))
	runParallel(len(texts), transportConns, func(i int) {
		results[i] = c.post("/query", queryBody(texts[i]))
	})
	wrong := 0
	for i, r := range results {
		if r.err != nil || r.status != http.StatusOK {
			t.rep.counts.addHTTP(r.status, r.err)
			continue
		}
		d, _, _, err := decodeAnswer(r.body)
		ok := err == nil && d == oracle[texts[i]]
		if !ok {
			wrong++
		}
		t.rep.counts.addCheck(ok)
	}
	t.rep.note("check %s: %d texts, %d wrong", phase, len(texts), wrong)
}

// hitRoundTrips re-asks the most recently checked texts, which the
// check left in the RAM cache, and times each cache-hit round trip.
func (t *transportRun) hitRoundTrips(c *transportClient) {
	texts := t.stream.Texts
	var rt []float64
	var bytesTotal, rows float64
	for i := len(texts) - 256; i < len(texts); i++ {
		body := queryBody(texts[i])
		t0 := time.Now()
		r := c.post("/query", body)
		d := time.Since(t0)
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		_, n, outcome, err := decodeAnswer(r.body)
		if err != nil || outcome != "hit" {
			continue
		}
		rt = append(rt, ms(float64(d)))
		bytesTotal += float64(len(r.body))
		rows += float64(n)
	}
	t.rep.layer["oniond.hit_roundtrip_ms"] = medianOf(rt)
	t.rep.layer["oniond.resp_bytes_per_row"] = ratio(bytesTotal, rows)
	t.rep.note("oniond: %d cache-hit round trips timed", len(rt))
}

// measureRecovery times System.OpenDir on the HTTP phase's data dir.
func (t *transportRun) measureRecovery() error {
	var rec, artic []float64
	for i := 0; i < 3; i++ {
		sys := core.NewSystem()
		a, err := loadFig2(sys)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := sys.OpenDir(t.dataDir); err != nil {
			return fmt.Errorf("recovering %s: %w", t.dataDir, err)
		}
		rec = append(rec, time.Since(t0).Seconds())
		artic = append(artic, ms(float64(a)))
	}
	t.rep.layer["core.recover_s"] = medianOf(rec)
	t.rep.layer["core.articulate_ms"] = medianOf(artic)
	return nil
}

// replayOp is one in-process operation of the traced replay.
type replayOp struct {
	traced  bool
	dur     time.Duration // the public call alone
	opDur   time.Duration // the call plus the benchmark's own span work
	err     error
	outcome serve.Outcome
	facts   int // facts AddFacts inserted
}

// replayInProcess replays the same seeded stream on serve.Service over a
// System opened through counting filesystems, with spans around each
// public call.
func (t *transportRun) replayInProcess() error {
	rep, tr := t.rep, t.rep.tracer
	runtime.GC()
	dir := filepath.Join(t.cfg.dir, "inproc")
	sys := core.NewSystem()
	if _, err := loadFig2(sys); err != nil {
		return err
	}
	pfs, cfs := newCountingFS(vfs.OS{}), newCountingFS(vfs.OS{})
	if _, err := sys.OpenDirFS(dir, pfs); err != nil {
		return err
	}
	svc := serve.New(sys, serve.Options{DefaultTimeout: 5 * time.Second})
	if err := svc.EnableDiskCacheFS(filepath.Join(dir, "cache"), 0, cfs); err != nil {
		return err
	}
	for _, src := range []string{"carrier", "factory"} {
		for _, batch := range t.growth[src] {
			if _, err := svc.AddFacts(src, batch); err != nil {
				return err
			}
		}
	}
	ctx := context.Background()
	for _, text := range t.stream.Warmup {
		if _, _, err := svc.QueryOutcome(ctx, fixtures.ArtName, text); err != nil {
			return err
		}
	}
	ops := t.stream.Ops
	out := make([]replayOp, len(ops))
	p0, c0, st0 := pfs.c.snap(), cfs.c.snap(), svc.Stats()
	runtime.GC()
	gc0 := readGC()
	times := openLoop(len(ops), time.Second/transportRate, transportConns, func(i int) {
		op := &out[i]
		// Blocks of ten, so traced and bare operations see the same
		// pattern of a mutation every tenth request.
		op.traced = (i/10)%2 == 0
		start := time.Now()
		opSpan, callSpan := -1, -1
		if op.traced {
			opSpan = tr.begin("bench", i, -1)
			callSpan = tr.begin("serve", i, opSpan)
		}
		t0 := time.Now()
		if ops[i].Text != "" {
			_, op.outcome, op.err = svc.QueryOutcome(ctx, fixtures.ArtName, ops[i].Text)
		} else {
			op.facts, op.err = svc.AddFacts(ops[i].Source, ops[i].Facts)
		}
		op.dur = time.Since(t0)
		if op.traced {
			tr.end(callSpan)
			tr.end(opSpan)
		}
		op.opDur = time.Since(start)
	})
	gc1 := readGC()
	pd, cd, st1 := pfs.c.snap().sub(p0), cfs.c.snap().sub(c0), svc.Stats()

	var hitUs, addUs, late []float64
	var oh []overheadSample
	var queries, hits, coalesced, mutations, factsAdded, userBytes, nTraced float64
	for i, op := range out {
		late = append(late, ms(float64(times[i].Late())))
		rep.counts.addErr(op.err)
		if op.traced {
			nTraced++
		}
		if ops[i].Text == "" {
			mutations++
			factsAdded += float64(op.facts)
			for _, f := range ops[i].Facts {
				userBytes += float64(len(f.Subject) + len(f.Predicate) + len(f.Object.Format()))
			}
			addUs = append(addUs, float64(op.dur)/1e3)
			continue
		}
		queries++
		oh = append(oh, overheadSample{key: ops[i].Text, traced: op.traced, dur: float64(op.opDur)})
		switch op.outcome {
		case serve.OutcomeHit:
			hits++
			hitUs = append(hitUs, float64(op.dur)/1e3)
		case serve.OutcomeCoalesced:
			coalesced++
		}
	}
	var err error
	ad := newDist(addUs)
	if rep.layer["core.addfacts_p50_us"], err = ad.median(); err != nil {
		return fmt.Errorf("AddFacts latency: %w", err)
	}
	if rep.layer["core.addfacts_p90_us"], err = ad.percentile(0.90); err != nil {
		return fmt.Errorf("AddFacts latency: %w", err)
	}
	if rep.layer["loadgen.late_p99_ms"], err = newDist(late).percentile(0.99); err != nil {
		return fmt.Errorf("generator lateness: %w", err)
	}
	rep.layer["serve.hit_ratio"] = ratio(hits, queries)
	rep.layer["serve.coalesced_ratio"] = ratio(coalesced, queries)
	rep.layer["serve.disk_hits_per_demotion"] = ratio(float64(st1.DiskHits-st0.DiskHits), float64(st1.DiskDemotions-st0.DiskDemotions))
	rep.layer["serve.hit_us"] = medianOf(hitUs)
	writes, written := pd.totalWrites()
	rep.layer["vfs.write_calls_per_fact"] = ratio(float64(writes), factsAdded)
	rep.layer["vfs.syncs_per_mutation"] = ratio(float64(pd.FileSyncs+pd.DirSyncs), mutations)
	rep.layer["vfs.bytes_written_per_user_byte"] = ratio(float64(written), userBytes)
	rep.layer["persist.snapshots_per_run"] = float64(pd.Snapshots)
	rep.layer["persist.log_bytes_per_fact"] = ratio(float64(pd.WriteBytes[classLog]), factsAdded)
	if pd.Snapshots > 0 {
		if rep.layer["persist.snapshot_bytes_per_fact"], err = snapshotBytesPerFact(filepath.Join(dir, "sources")); err != nil {
			return err
		}
	}
	rep.layer["runtime.gc_cycles_per_query"] = ratio(gc1.cycles-gc0.cycles, queries)
	rep.layer["runtime.gc_cpu_fraction"] = ratio(gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU)
	rep.layer["bench.trace_overhead_pct"] = overheadPct(oh)
	self := tr.selfNs()
	vfsUs := ratio(float64(pd.BusyNs+cd.BusyNs), float64(len(ops))) / 1e3
	rep.layer["self.bench_us_per_op"] = ratio(float64(self["bench"]), nTraced) / 1e3
	rep.layer["self.serve_us_per_op"] = ratio(float64(self["serve"]), nTraced)/1e3 - vfsUs
	rep.layer["self.vfs_us_per_op"] = vfsUs
	rep.note("replay: %d ops (%d traced), %d mutations adding %d facts; %d snapshots; disk tier %d demotions, %d hits; %d persist writes",
		len(ops), int(nTraced), int(mutations), int(factsAdded), pd.Snapshots,
		st1.DiskDemotions-st0.DiskDemotions, st1.DiskHits-st0.DiskHits, writes)
	if err := missOverhead(rep, svc, sys, t.stream.Texts); err != nil {
		return err
	}
	return parsePlan(rep, sys, t.stream.Texts)
}

// missOverhead measures what the serve layer adds to an executed query.
// For a sample of texts it adds one fact no query reads, which moves the
// epoch so the next serve call is a miss, runs the text once on the
// System to absorb the rebuild of per-epoch state, then times a serve
// miss and a plain System.QueryCtx of the same text, alternating which
// goes first. The overhead is the median paired difference.
func missOverhead(rep *report, svc *serve.Service, sys *core.System, texts []string) error {
	ctx := context.Background()
	var diffs, exec []float64
	var rows, factRows float64
	for i, k := 0, 0; i < len(texts); i, k = i+24, k+1 {
		text := texts[i]
		marker := kb.Fact{Subject: fmt.Sprintf("Zbench%d", k), Predicate: "Note", Object: kb.String("epoch bump")}
		if _, err := svc.AddFacts("carrier", []kb.Fact{marker}); err != nil {
			return err
		}
		if _, err := sys.QueryCtx(ctx, fixtures.ArtName, text, query.Options{}); err != nil {
			return err
		}
		var viaServe, direct time.Duration
		var res *query.Result
		for j := 0; j < 2; j++ {
			t0 := time.Now()
			if (j == 0) == (k%2 == 0) {
				_, out, err := svc.QueryOutcome(ctx, fixtures.ArtName, text)
				if err != nil {
					return err
				}
				if out != serve.OutcomeMiss {
					return fmt.Errorf("serve answered %q with %v after an epoch bump, want a miss", text, out)
				}
				viaServe = time.Since(t0)
			} else {
				r, err := sys.QueryCtx(ctx, fixtures.ArtName, text, query.Options{})
				if err != nil {
					return err
				}
				direct, res = time.Since(t0), r
			}
		}
		diffs = append(diffs, float64(viaServe-direct))
		exec = append(exec, float64(direct))
		rows += float64(len(res.Rows))
		factRows += float64(res.Stats.FactRows)
	}
	rep.layer["serve.miss_overhead_us"] = medianOf(diffs) / 1e3
	rep.layer["query.exec_p50_ms"] = ms(medianOf(exec))
	rep.layer["query.fact_rows_per_result_row"] = ratio(factRows, rows)
	return nil
}

// snapshotBytesPerFact reads each source's snapshot header (magic, epoch,
// fact count) and divides the file sizes by the facts they hold.
func snapshotBytesPerFact(sourcesDir string) (float64, error) {
	paths, err := filepath.Glob(filepath.Join(sourcesDir, "*", "snapshot"))
	if err != nil {
		return 0, err
	}
	var size, facts float64
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		const magic = "ONIONSP2"
		if !bytes.HasPrefix(data, []byte(magic)) {
			return 0, fmt.Errorf("%s: not a snapshot", p)
		}
		rest := data[len(magic):]
		_, n := binary.Uvarint(rest) // epoch
		if n <= 0 {
			return 0, fmt.Errorf("%s: bad header", p)
		}
		count, m := binary.Uvarint(rest[n:])
		if m <= 0 {
			return 0, fmt.Errorf("%s: bad header", p)
		}
		size += float64(len(data))
		facts += float64(count)
	}
	return ratio(size, facts), nil
}

// parsePlan times query.Parse and, on a fresh engine over the same
// world, Engine.Explain, on a sample of the distinct texts.
func parsePlan(rep *report, sys *core.System, texts []string) error {
	art, ok := sys.Articulation(fixtures.ArtName)
	if !ok {
		return fmt.Errorf("no articulation %q", fixtures.ArtName)
	}
	sources := map[string]*query.Source{}
	for _, name := range []string{"carrier", "factory"} {
		o, _ := sys.Ontology(name)
		store, _ := sys.KB(name)
		sources[name] = &query.Source{Ont: o, KB: store}
	}
	var parse, plan []float64
	for i := 0; i < len(texts); i += 24 {
		t0 := time.Now()
		q, err := query.Parse(texts[i])
		parse = append(parse, float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
		eng, err := query.NewEngine(art, sources)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := eng.Explain(q); err != nil {
			return err
		}
		plan = append(plan, float64(time.Since(t0))/1e3)
	}
	rep.layer["query.parse_us"] = medianOf(parse)
	rep.layer["query.plan_us"] = medianOf(plan)
	return nil
}
