package main

// The traced run (--trace 1) replays a workload serially, one request at
// a time, and times each layer from outside by wrapping calls into its
// public functions: petri.Parse, Net.CanonicalForm, invariant.TInvariants
// and PInvariants, core.EnumerateDistinctReductions, core.SolveReductions,
// Schedule.BufferBounds, core.PartitionTasks, codegen.Generate and EmitC,
// sim.CalibrateDeadline, RunRobust and SearchOverloadMargin. Next to that
// direct replay it times the engine's calls on a fresh parse of the same
// text, and sends requests through a coordinator and two backends whose
// handlers are wrapped in timing middleware. No span is added inside the
// program.
//
// Each span records name, start, end and parent; spans of one request
// share its op number. A layer's self time is its span minus the child
// spans it covers. Passes alternate untraced and traced on fresh engines
// and stacks; the tracing overhead is the difference of their median
// wall times, and each traced pass reports the wall time no top-level
// span covers; the benchmark's own output checks run under a span of
// their own (trace.bench.ms). The last traced pass's spans are written to
// .bench_build/traces when the run ends.
//
// Layers a workload does not use on its timed path still run on a light
// sample (every 16th request; the margin search every 64th first-seen
// net) so that every metric is measured on every workload. Which
// end-to-end metric each layer should move, and where it is heavy:
//
//	petri      req_p50_ms, req_per_s         serve  (light: margin)
//	invariant  nets_per_s                    synth  (light: serve)
//	core       nets_per_s, net_p99_ms        synth  (light: serve)
//	codegen    nets_per_s, c_lines           synth  (light: serve)
//	sim        nets_per_s, net_p99_ms,
//	           code_cycles                   margin (light: synth)
//	engine     twin_nets_per_s, net_p99_ms   synth  (light: margin)
//	server     req_p50_ms, req_per_s         serve  (light: synth)
//	coord      req_p99_ms                    serve  (light: synth)
//	http       req_p50_ms                    serve  (light: synth)

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/engine"
	"fcpn/internal/invariant"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
	"fcpn/internal/trace"
)

type spanRec struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans records the spans of a serial replay in memory. Spans nest
// strictly because one request runs at a time, so the open-span stack
// gives every span its parent, including spans the middleware opens on
// server goroutines. A recorder that is off records nothing.
type spans struct {
	on   atomic.Bool
	mu   sync.Mutex
	t0   time.Time
	op   int
	recs []spanRec
	open []int
}

func (s *spans) begin(name string) int {
	if !s.on.Load() {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	parent := -1
	if len(s.open) > 0 {
		parent = s.open[len(s.open)-1]
	}
	id := len(s.recs)
	s.recs = append(s.recs, spanRec{Op: s.op, ID: id, Parent: parent, Name: name, Start: time.Since(s.t0).Nanoseconds()})
	s.open = append(s.open, id)
	return id
}

func (s *spans) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[id].End = now
	for i := len(s.open) - 1; i >= 0; i-- {
		if s.open[i] == id {
			s.open = append(s.open[:i], s.open[i+1:]...)
			break
		}
	}
}

func (s *spans) setOp(op int) {
	s.mu.Lock()
	s.op = op
	s.mu.Unlock()
}

// middleware times POST /v1/analyze under name and counts response bytes.
func (s *spans) middleware(name string, respBytes *atomic.Int64) middleware {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/analyze" {
				h.ServeHTTP(w, r)
				return
			}
			id := s.begin(name)
			cw := &countingWriter{ResponseWriter: w}
			h.ServeHTTP(cw, r)
			s.end(id)
			if respBytes != nil {
				respBytes.Add(cw.n)
			}
		})
	}
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// replayOp is one request of the replay.
type replayOp struct {
	it   item
	text string
	// cold marks the first sight of a structure: the direct replay runs
	// every layer; later sights replay only parse and canonicalisation.
	cold       bool
	http       bool
	simNominal bool
	simMargin  bool
	synthesize bool
	// twinOf is the index of the op whose engine report this one must
	// equal byte for byte, or -1.
	twinOf int
}

type replayer struct {
	ops    []replayOp
	cfg    engine.Config
	warmup []item // serve: the catalog, warmed into stack and engine
}

func newReplayer(o options) (*replayer, error) {
	rp := &replayer{}
	light := func(i, every int) bool { return i%every == 0 }
	switch o.workload {
	case "synth", "margin":
		var b *batch
		var err error
		if o.workload == "synth" {
			b, err = synthBatch(o.root, o.seed, o.scale, 1)
		} else {
			b, err = marginBatch(o.seed, o.scale, 1)
		}
		if err != nil {
			return nil, err
		}
		rp.cfg = b.cfg
		timed := o.workload == "margin"
		n := len(b.items)
		for i, it := range b.items {
			rp.ops = append(rp.ops, replayOp{
				it: it, text: it.text, cold: true, http: light(i, 16),
				simNominal: timed || light(i, 16), simMargin: timed || light(i, 64),
				synthesize: b.synthesize || light(i, 16), twinOf: -1,
			})
		}
		for i, it := range b.items {
			rp.ops = append(rp.ops, replayOp{
				it: it, text: it.twin, http: light(n+i, 16), synthesize: b.synthesize, twinOf: i,
			})
		}
	case "serve":
		catalog, fresh := serveCorpus(o.seed, o.scale, o.seconds)
		sl := &serveLoad{seed: o.seed, catalog: catalog, fresh: fresh, ref: make([]json.RawMessage, len(catalog))}
		rp.cfg = engine.Config{Workers: 1}
		rp.warmup = catalog
		var next atomic.Int64
		sched := sl.schedule(0, &next)
		cold := 0
		for i := 0; i < scaled(1600, o.scale); i++ {
			op, ok := sched.next()
			if !ok {
				break
			}
			ro := replayOp{it: op.it, text: op.text, cold: op.fresh, http: true, twinOf: -1}
			if op.fresh {
				ro.simNominal, ro.simMargin, ro.synthesize = light(cold, 16), light(cold, 64), light(cold, 16)
				cold++
			}
			rp.ops = append(rp.ops, ro)
		}
	}
	return rp, nil
}

// counts are the per-pass work counts of the direct replay.
type counts struct {
	semiflows, reductions, classes, cycles int64
	irNodes, cLines, events, probes        int64
	waitNS                                 int64
}

type passResult struct {
	wall     time.Duration
	spans    []spanRec
	counts   counts
	digests  [][32]byte
	hitRatio float64
	server   [3]int64 // hits, misses, rejected
	coord    [3]int64 // retries, failovers, hedges
	respB    int64
}

// pass replays every op once on a fresh engine and a fresh stack.
func (rp *replayer) pass(traced bool, fails *failures) (*passResult, error) {
	sp := &spans{}
	var respB atomic.Int64
	st, err := bootStack(sp.middleware("server.handler", &respB), sp.middleware("coord.handler", nil))
	if err != nil {
		return nil, err
	}
	defer st.close()
	eng := engine.New(rp.cfg)
	defer eng.Close()
	for _, it := range rp.warmup {
		if code, body, err := st.post(it.text); code != http.StatusOK || err != nil {
			_, p := replyProblem(it, code, body, err)
			fails.add(it.source+" warm-up", p)
		}
		if n, err := petri.ParseString(it.text); err == nil {
			eng.Analyze(n)
		}
	}
	respB.Store(0)
	srv0, crd0 := stackCounters(st)
	var cnt [2]int64
	statsDelta(eng, &cnt)

	pr := &passResult{digests: make([][32]byte, len(rp.ops))}
	sp.t0 = time.Now()
	sp.on.Store(traced)
	for i, op := range rp.ops {
		sp.setOp(i)
		rp.one(i, op, sp, eng, st, pr, fails)
	}
	pr.wall = time.Since(sp.t0)

	pr.hitRatio = statsDelta(eng, &cnt)
	srv1, crd1 := stackCounters(st)
	for k := range srv1 {
		pr.server[k] = srv1[k] - srv0[k]
		pr.coord[k] = crd1[k] - crd0[k]
	}
	pr.respB = respB.Load()
	pr.spans = sp.recs
	for i, op := range rp.ops {
		if op.twinOf >= 0 && pr.digests[i] != pr.digests[op.twinOf] {
			fails.add(op.it.source+" twin", "engine report differs from the original's")
		}
	}
	return pr, nil
}

func stackCounters(st *stack) (srv, crd [3]int64) {
	for _, b := range st.backends {
		r := b.StatsReport().Requests
		srv[0] += r.AnalyzeHits
		srv[1] += r.AnalyzeMisses
		srv[2] += r.RejectedWindow
	}
	r := st.coord.StatsReport().Requests
	return srv, [3]int64{r.Retries, r.Failovers, r.Hedges}
}

// one replays one request: the direct layer calls, the engine's calls,
// and (when sampled) the HTTP round trip.
func (rp *replayer) one(i int, op replayOp, sp *spans, eng *engine.Engine, st *stack, pr *passResult, fails *failures) {
	id := sp.begin("petri.parse")
	n, err := petri.ParseString(op.text)
	sp.end(id)
	if err != nil {
		fails.add(op.it.source, "parse: "+err.Error())
		return
	}
	id = sp.begin("petri.canonical")
	n.CanonicalForm()
	sp.end(id)
	if op.cold {
		rp.direct(n, op, sp, &pr.counts)
	}

	id = sp.begin("petri.parse")
	n2, _ := petri.ParseString(op.text)
	sp.end(id)
	t0 := time.Now()
	id = sp.begin("engine.analyze")
	res, err := eng.AnalyzeBatch([]*petri.Net{n2})
	sp.end(id)
	if err != nil {
		fails.add(op.it.source, "engine: "+err.Error())
		return
	}
	pr.counts.waitNS += (time.Since(t0) - res[0].Elapsed).Nanoseconds()
	id = sp.begin("bench.check")
	if p := verdictProblem(op.it, res[0].Report, res[0].Err); p != "" {
		fails.add(op.it.source, p)
	}
	raw, _ := json.Marshal(res[0].Report)
	pr.digests[i] = sha256.Sum256(raw)
	sp.end(id)
	if op.synthesize && res[0].Report.Schedulable {
		id = sp.begin("engine.synthesize")
		_, err := eng.Synthesize(n2)
		sp.end(id)
		if err != nil {
			fails.add(op.it.source, "synthesize: "+err.Error())
		}
	}

	if op.http {
		id = sp.begin("http.client")
		code, body, err := st.post(op.text)
		sp.end(id)
		if _, p := replyProblem(op.it, code, body, err); p != "" {
			fails.add(op.it.source+" http", p)
		}
	}
}

// direct replays the analysis pipeline layer by layer through the
// layers' public functions, as the engine sequences them.
func (rp *replayer) direct(n *petri.Net, op replayOp, sp *spans, c *counts) {
	id := sp.begin("invariant.tsemiflows")
	tis, _ := invariant.TInvariants(n, invariant.Options{})
	sp.end(id)
	id = sp.begin("invariant.psemiflows")
	pis, _ := invariant.PInvariants(n, invariant.Options{})
	sp.end(id)
	c.semiflows += int64(len(tis) + len(pis))
	if !n.IsFreeChoice() || n.Validate() != nil {
		return
	}
	id = sp.begin("core.reduce")
	reds, err := core.EnumerateDistinctReductions(n, 0)
	sp.end(id)
	if err != nil {
		return
	}
	c.reductions += int64(len(reds))
	tr := trace.New()
	id = sp.begin("core.solve")
	sched, err := core.SolveReductions(n, reds, core.Options{Trace: tr})
	sp.end(id)
	checks, _ := tr.Report().Phase("core/check")
	c.classes += checks.Count
	if err != nil {
		return
	}
	c.cycles += int64(len(sched.Cycles))
	id = sp.begin("core.bounds")
	sched.BufferBounds()
	sp.end(id)
	id = sp.begin("core.tasks")
	tp, err := core.PartitionTasks(n, core.Options{})
	sp.end(id)
	if err != nil {
		return
	}
	id = sp.begin("codegen.generate")
	prog, err := codegen.Generate(sched, tp)
	sp.end(id)
	if err != nil {
		return
	}
	c.irNodes += int64(countNodes(prog))
	id = sp.begin("codegen.emit")
	src := codegen.EmitC(prog, codegen.CConfig{})
	sp.end(id)
	c.cLines += int64(codegen.LineCount(src))
	if !op.simNominal {
		return
	}
	events := nominalEvents(n)
	cost := rtos.DefaultCostModel()
	hooks := func() sim.Hooks { return sim.Hooks{Resolver: sim.NewDecisionStream(n, 1).Resolver()} }
	id = sp.begin("sim.calibrate")
	deadline, err := sim.CalibrateDeadline(prog, events, cost, sim.RobustConfig{CyclesPerTick: 1}, hooks(), sim.DefaultDeadlineFactor)
	sp.end(id)
	if err != nil {
		return
	}
	robust := sim.RobustConfig{CyclesPerTick: 1, Deadline: deadline, MK: marginTiming.MK}
	id = sp.begin("sim.robust")
	rm, err := sim.RunRobust(prog, events, cost, robust, hooks())
	sp.end(id)
	if err == nil {
		c.events += int64(rm.Events)
	}
	if !op.simMargin {
		return
	}
	id = sp.begin("sim.margin")
	for _, kind := range []sim.OverloadKind{sim.OverloadBurst, sim.OverloadOverrun} {
		om, err := sim.SearchOverloadMargin(prog, events, cost, sim.MarginConfig{
			Kind: kind, MK: marginTiming.MK, Seed: 1,
			Robust: sim.RobustConfig{CyclesPerTick: 1, Deadline: deadline},
			Hooks:  hooks,
		})
		if err == nil {
			c.probes += int64(om.Result.Probes)
		}
	}
	sp.end(id)
}

// countNodes counts the program's IR statements, shared helpers once.
func countNodes(prog *codegen.Program) int {
	var walk func([]codegen.Node) int
	walk = func(nodes []codegen.Node) int {
		total := len(nodes)
		for _, nd := range nodes {
			switch x := nd.(type) {
			case codegen.GuardNode:
				total += walk(x.Body)
			case codegen.ChoiceNode:
				for _, br := range x.Branches {
					total += walk(br.Body)
				}
			}
		}
		return total
	}
	total := 0
	for _, tc := range prog.Tasks {
		for _, b := range tc.Bodies {
			total += walk(b.Body)
		}
		total += walk(tc.Residual)
	}
	for _, h := range prog.Helpers {
		total += walk(h.Body)
	}
	return total
}

// layerMetrics turns one traced pass into the per-layer metrics.
func (rp *replayer) layerMetrics(pr *passResult) map[string]float64 {
	child := make([]int64, len(pr.spans))
	for _, s := range pr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	calls := map[string]int64{}
	var top int64
	// engine.self.ms compares, on first-seen requests, the engine's job
	// time with the direct replay of the layers the engine runs itself.
	covered := map[string]bool{
		"petri.canonical": true, "invariant.tsemiflows": true, "invariant.psemiflows": true,
		"core.reduce": true, "core.solve": true, "core.bounds": true, "core.tasks": true,
	}
	timed := rp.cfg.Timing.Enabled()
	var engineNS, directNS int64
	for i, s := range pr.spans {
		d := s.End - s.Start
		self[s.Name] += float64(d-child[i]) / 1e6
		calls[s.Name]++
		if s.Parent < 0 {
			top += d
		}
		op := rp.ops[s.Op]
		if !op.cold {
			continue
		}
		switch {
		case s.Name == "engine.analyze" || s.Name == "engine.synthesize":
			engineNS += d
		case covered[s.Name],
			s.Name == "codegen.generate" && (op.synthesize || timed),
			(s.Name == "sim.calibrate" || s.Name == "sim.robust" || s.Name == "sim.margin") && timed:
			directNS += d
		}
	}
	c := pr.counts
	dedup := 0.0
	if c.reductions > 0 {
		dedup = float64(c.classes) / float64(c.reductions)
	}
	m := map[string]float64{
		"petri.parse.calls":      float64(calls["petri.parse"]),
		"petri.canonical.calls":  float64(calls["petri.canonical"]),
		"invariant.semiflows":    float64(c.semiflows),
		"core.reductions":        float64(c.reductions),
		"core.dedup.ratio":       dedup,
		"core.cycles":            float64(c.cycles),
		"codegen.ir_nodes":       float64(c.irNodes),
		"codegen.c_lines":        float64(c.cLines),
		"sim.margin.probes":      float64(c.probes),
		"sim.events":             float64(c.events),
		"engine.self.ms":         float64(engineNS-directNS) / 1e6,
		"engine.wait.ms":         float64(c.waitNS) / 1e6,
		"engine.cache.hit_ratio": pr.hitRatio,
		"server.hits":            float64(pr.server[0]),
		"server.misses":          float64(pr.server[1]),
		"server.rejected":        float64(pr.server[2]),
		"server.resp_bytes":      float64(pr.respB),
		"coord.retries":          float64(pr.coord[0]),
		"coord.failovers":        float64(pr.coord[1]),
		"coord.hedges":           float64(pr.coord[2]),
		"coord.handler.self_ms":  self["coord.handler"],
		"http.transport.ms":      self["http.client"],
		"trace.pass.ms":          msOf(pr.wall),
		"trace.bench.ms":         self["bench.check"],
		"trace.unattributed.ms":  msOf(pr.wall) - float64(top)/1e6,
	}
	for name, unit := range perLayer {
		if _, done := m[name]; !done && unit == "ms" {
			m[name] = self[trimMS(name)]
		}
	}
	return m
}

func trimMS(name string) string { return name[:len(name)-len(".ms")] }

// runReplay alternates untraced and traced passes until the time is up
// (at least one of each) and reports the per-layer metrics of the traced
// passes, medians where there are several.
func runReplay(o options, rec *record, res *result, fails *failures) (int64, error) {
	meter := startSpeedMeter()
	rp, setups, err := timedSetup(meter, func() (*replayer, error) { return newReplayer(o) }, func(*replayer) {})
	meter.close()
	if err != nil {
		return 0, err
	}
	rec.SetupS = setups
	rec.Corpus["ops"] = len(rp.ops)
	start := time.Now()
	var plain, traced []float64
	var tracedRuns []map[string]float64
	var last *passResult
	var ref [][32]byte
	var attempted int64
	for len(traced) == 0 || time.Since(start).Seconds() < o.seconds {
		on := len(plain) > len(traced)
		pr, err := rp.pass(on, fails)
		if err != nil {
			return 0, err
		}
		attempted += int64(len(rp.ops))
		if ref == nil {
			ref = pr.digests
		} else {
			for i := range ref {
				if ref[i] != pr.digests[i] {
					fails.add(rp.ops[i].it.source, "engine report differs between replay passes")
				}
			}
		}
		if on {
			traced = append(traced, msOf(pr.wall))
			tracedRuns = append(tracedRuns, rp.layerMetrics(pr))
			last = pr
		} else {
			plain = append(plain, msOf(pr.wall))
		}
		if time.Since(start) > 150*time.Second {
			break
		}
	}
	rec.Extra["untraced_pass_ms"] = plain
	rec.Extra["traced_pass_ms"] = traced
	for name, unit := range perLayer {
		var vs []float64
		for _, m := range tracedRuns {
			vs = append(vs, m[name])
		}
		res.Metrics[name] = metric{Value: median(vs), Unit: unit}
	}
	res.Metrics["trace.overhead.ms"] = metric{Value: median(traced) - median(plain), Unit: "ms"}
	path := filepath.Join(o.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, last.spans); err != nil {
		return 0, err
	}
	return attempted, nil
}

func writeSpans(path string, recs []spanRec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
