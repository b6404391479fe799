package main

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"fcpn/internal/codegen"
	"fcpn/internal/engine"
	"fcpn/internal/petri"
	"fcpn/internal/timing"
)

// engineCacheCapacity is the engine's default cache size (entries across
// all layers), against which the synth working set is checked.
const engineCacheCapacity = 4096

// batch is a workload that drives nets through one in-process engine per
// round: a cold pass over distinct nets, then a pass over their permuted
// twins. synth and margin are batches.
type batch struct {
	items []item
	cfg   engine.Config
	// synthesize adds Synthesize and C emission to every request, as the
	// synth workload's pipeline does.
	synthesize bool
}

func synthBatch(root string, seed uint64, scale float64, workers int) (*batch, error) {
	r := newRng(seed, 0)
	paper, err := paperNets(root, r)
	if err != nil {
		return nil, err
	}
	// The heavy band is the same 200 nets for every seed: they set the
	// p99, and a fresh sample of so few tail nets per seed would move it
	// by more than the program does. The seed draws the bulk and every
	// twin.
	seen := map[string]bool{}
	heavy := newGenerator(0, 4, seen).draw(heavyBand, scaled(200, scale), false)
	g := newGenerator(seed, 1, seen)
	for i := range heavy {
		heavy[i].twin = permute(heavy[i].text, r)
	}
	items := append(paper, g.draw(defaultBand, scaled(2000, scale), true)...)
	items = append(items, heavy...)
	return &batch{items: items, cfg: engine.Config{Workers: workers}, synthesize: true}, nil
}

// marginTiming is the margin workload's timing pass: the (9,10)
// weakly-hard constraint with the overload-margin search on.
var marginTiming = engine.TimingOptions{MK: timing.Constraint{M: 9, K: 10}, Margin: true}

func marginBatch(seed uint64, scale float64, workers int) (*batch, error) {
	r := newRng(seed, 0)
	models, err := modelNets(r)
	if err != nil {
		return nil, err
	}
	g := newGenerator(seed, 2, map[string]bool{})
	items := append(models, g.draw(defaultBand, scaled(1100, scale), true)...)
	return &batch{items: items, cfg: engine.Config{Workers: workers, Timing: marginTiming}}, nil
}

// opResult is one request's outcome.
type opResult struct {
	rep   *engine.NetReport
	err   error
	lines int
	prog  *codegen.Program
}

// request is the workload's unit of work as a user submits it: .pn text
// in, report (and for synth, C code) out.
func (b *batch) request(eng *engine.Engine, text string) opResult {
	n, err := petri.ParseString(text)
	if err != nil {
		return opResult{err: err}
	}
	rep, err := eng.Analyze(n)
	r := opResult{rep: rep, err: err}
	if err != nil || !b.synthesize || !rep.Schedulable {
		return r
	}
	syn, err := eng.Synthesize(n)
	if err != nil {
		r.err = err
		return r
	}
	r.lines = codegen.LineCount(syn.C(false))
	r.prog = syn.Program
	return r
}

// pass runs op(i) for i in [0,n) on `workers` goroutines pulling from a
// shared counter, and returns the wall time.
func pass(n, workers int, op func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// reference is what the untimed verification pass establishes: each
// net's report bytes and C line count, the Table I sums, and the cache
// working set.
type reference struct {
	reports      [][]byte
	lines        []int
	table        tableI
	distinct     int
	workingSet   int64
	coldHitRatio float64
	twinHitRatio float64
}

// statsDelta returns the cache hit ratio between two snapshots.
func statsDelta(eng *engine.Engine, before *[2]int64) float64 {
	s := eng.Stats()
	hits, misses := s.CacheHits-before[0], s.CacheMisses-before[1]
	before[0], before[1] = s.CacheHits, s.CacheMisses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// verify runs one untimed cold pass and twin pass with every output
// check: known verdicts, twin reports byte-identical to the originals,
// and each generated program's nominal run passing the state equation.
func (b *batch) verify(workers int, fails *failures) reference {
	eng := engine.New(b.cfg)
	defer eng.Close()
	n := len(b.items)
	ref := reference{reports: make([][]byte, n), lines: make([]int, n)}
	var mu sync.Mutex
	var cnt [2]int64
	s := eng.Stats()
	cnt[0], cnt[1] = s.CacheHits, s.CacheMisses
	misses0 := s.CacheMisses
	pass(n, workers, func(i int) {
		it := b.items[i]
		r := b.request(eng, it.text)
		if p := verdictProblem(it, r.rep, r.err); p != "" {
			fails.add(it.source, p)
			return
		}
		raw, err := json.Marshal(r.rep)
		if err != nil {
			fails.add(it.source, "marshal: "+err.Error())
			return
		}
		ref.reports[i], ref.lines[i] = raw, r.lines
		var cycles int64
		if r.prog != nil {
			if cycles, err = nominalRun(r.prog); err != nil {
				fails.add(it.source, err.Error())
			}
		}
		mu.Lock()
		ref.table.cLines += int64(r.lines)
		ref.table.cycles += cycles
		mu.Unlock()
	})
	ref.coldHitRatio = statsDelta(eng, &cnt)
	ref.workingSet = eng.Stats().CacheMisses - misses0
	hashes := map[string]bool{}
	for _, raw := range ref.reports {
		var h struct{ Hash string }
		if json.Unmarshal(raw, &h) == nil {
			hashes[h.Hash] = true
		}
	}
	ref.distinct = len(hashes)
	pass(n, workers, func(i int) {
		it := b.items[i]
		r := b.request(eng, it.twin)
		if p := verdictProblem(it, r.rep, r.err); p != "" {
			fails.add(it.source+" twin", p)
			return
		}
		raw, err := json.Marshal(r.rep)
		if err != nil || !bytes.Equal(raw, ref.reports[i]) {
			fails.add(it.source+" twin", "report differs from the original's")
		}
	})
	ref.twinHitRatio = statsDelta(eng, &cnt)
	if !b.synthesize {
		ref.table = synthesizeAll(eng, b.items, fails)
	}
	return ref
}

// roundStats are one timed round's figures at the reference host speed,
// with the host's relative speed during each pass.
type roundStats struct {
	ColdRate  float64 `json:"nets_per_s"`
	TwinRate  float64 `json:"twin_nets_per_s"`
	ReqRate   float64 `json:"req_per_s"`
	ColdSpeed float64 `json:"cold_rel_speed"`
	TwinSpeed float64 `json:"twin_rel_speed"`
}

// batchRun accumulates the timed rounds. Each rate is the median over
// rounds, so a transient slow phase of the host moves it less; the
// percentiles are taken over the latencies of every round.
type batchRun struct {
	rounds           []roundStats
	cold, all        samples
	coldHit, twinHit []float64
}

func (br *batchRun) median(f func(roundStats) float64) float64 {
	vs := make([]float64, len(br.rounds))
	for i, r := range br.rounds {
		vs[i] = f(r)
	}
	return median(vs)
}

// measure runs timed rounds, each on a fresh engine, until the time is
// up (at least three rounds). Requests are checked cheaply against the
// reference as they complete. Each pass's timings are scaled to the
// reference host by the meter's reading over the pass.
func (b *batch) measure(workers int, seconds float64, ref reference, meter *speedMeter, fails *failures) *batchRun {
	n := len(b.items)
	br := &batchRun{}
	start := time.Now()
	for len(br.rounds) < 3 || time.Since(start).Seconds() < seconds {
		if time.Since(start) > 150*time.Second {
			break
		}
		eng := engine.New(b.cfg)
		var cnt [2]int64
		statsDelta(eng, &cnt)
		var rs roundStats
		var walls [2]float64
		for k, twin := range []bool{false, true} {
			lat := make(samples, n)
			meter.speed()
			wall := pass(n, workers, func(i int) {
				it := b.items[i]
				text := it.text
				if twin {
					text = it.twin
				}
				t0 := time.Now()
				r := b.request(eng, text)
				lat[i] = time.Since(t0)
				if p := verdictProblem(it, r.rep, r.err); p != "" {
					fails.add(it.source, p)
				} else if r.lines != ref.lines[i] {
					fails.add(it.source, "C line count differs from the verification pass")
				}
			})
			speed := meter.speed()
			lat.scale(speed)
			walls[k] = wall.Seconds() * speed
			br.all = append(br.all, lat...)
			ratio := statsDelta(eng, &cnt)
			if twin {
				rs.TwinSpeed = speed
				br.twinHit = append(br.twinHit, ratio)
				continue
			}
			rs.ColdSpeed = speed
			br.coldHit = append(br.coldHit, ratio)
			br.cold = append(br.cold, lat...)
		}
		eng.Close()
		rs.ColdRate = float64(n) / walls[0]
		rs.TwinRate = float64(n) / walls[1]
		rs.ReqRate = float64(2*n) / (walls[0] + walls[1])
		br.rounds = append(br.rounds, rs)
	}
	return br
}
