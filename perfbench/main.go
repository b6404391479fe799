// Command perfbench is the repository's benchmark. It generates every
// input from --seed, hands the program under test only .pn source text,
// checks every output, and prints one JSON result line last.
//
//	perfbench --workload synth|margin|serve --seed N --seconds S --trace 0|1 [--root DIR]
//
// Workloads:
//
//   - synth: 2000 default-size generated nets, 200 heavy nets with 10^3 to
//     65536 T-allocations (the same for every seed), and the nine paper
//     nets. Each request parses, analyses (timing off), synthesises and
//     emits C. A cold pass over the distinct nets is followed by a pass
//     over permuted twins, on a fresh engine per round. Loads petri,
//     invariant, core and codegen.
//   - margin: 1100 default-size nets plus the ATM and modem models,
//     analysed with the (9,10) weakly-hard timing pass and its overload
//     margin search; cold pass, then twins. Loads sim, rtos and timing.
//   - serve: two closed-loop clients over loopback HTTP into a
//     coordinator fronting two single-shard backends. Requests draw from a
//     warmed catalog with skewed popularity, half as permuted twins; every
//     tenth request is a never-seen net.
//
// Every timing is scaled to a reference host speed by a meter that runs
// beside the measurement (see speedMeter); the run record keeps the
// readings.
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a serial replay times each layer from outside (see
// replay.go) and the result carries the per-layer metrics. A run record
// with provenance, sample counts and the checks precedes the result
// line; both are also written under .bench_build/records.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fcpn/internal/engine"
)

// procStart approximates process start for the first set-up.
var procStart = time.Now()

// setupReps is how many times each run sets up; setup_s is their median.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run record printed before the result line.
type record struct {
	Workload   string          `json:"workload"`
	Trace      bool            `json:"trace"`
	Seconds    float64         `json:"seconds"`
	Provenance provenance      `json:"provenance"`
	Corpus     map[string]any  `json:"corpus"`
	SetupS     []float64       `json:"setup_s"`
	Samples    map[string]int  `json:"samples,omitempty"`
	Stable     map[string]bool `json:"percentile_has_10_beyond,omitempty"`
	Extra      map[string]any  `json:"extra,omitempty"`
	FailedFrac float64         `json:"failed_frac"`
	Failures   []string        `json:"failures,omitempty"`
	SelfChecks []string        `json:"failed_self_checks,omitempty"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
	// scale shrinks the corpora; only the self-tests set it below 1.
	scale float64
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{scale: 1}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "synth, margin or serve")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement time")
	fs.IntVar(&trace, "trace", 0, "1 runs the per-layer replay instead of the end-to-end measurement")
	fs.StringVar(&o.root, "root", ".", "repository root (for examples/nets and run records)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	switch o.workload {
	case "synth", "margin", "serve":
	default:
		return o, fmt.Errorf("unknown --workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	return o, nil
}

func main() {
	o, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rec, res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(o, rec, res, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workers is the engine and client parallelism of the timed runs.
func workers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// run sets up, verifies and measures one workload.
func run(o options) (*record, *result, error) {
	if _, err := os.Stat(filepath.Join(o.root, "examples", "nets")); err != nil {
		return nil, nil, fmt.Errorf("no program sources under %s: %w", o.root, err)
	}
	rec := &record{
		Workload: o.workload, Trace: o.trace, Seconds: o.seconds,
		Corpus: map[string]any{}, Samples: map[string]int{}, Stable: map[string]bool{}, Extra: map[string]any{},
	}
	fails := &failures{}
	res := &result{Metrics: map[string]metric{}}
	var attempted int64
	var err error
	if o.trace {
		attempted, err = runReplay(o, rec, res, fails)
	} else {
		attempted, err = runEndToEnd(o, rec, res, fails)
	}
	if err != nil {
		return nil, nil, err
	}
	rec.Provenance = newProvenance(o.root, o.seed, workers())
	res.Failed = fails.count()
	res.Attempted = attempted
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	rec.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	rec.Failures = fails.reasons
	res.Correct = res.Failed == 0 && len(rec.SelfChecks) == 0
	return rec, res, nil
}

// timedSetup runs set-up setupReps times and returns the last result with
// every duration, scaled to the reference host by the meter's reading
// over that set-up; the first is measured from process start.
func timedSetup[T any](meter *speedMeter, build func() (T, error), discard func(T)) (T, []float64, error) {
	var last T
	var ds []float64
	for i := 0; i < setupReps; i++ {
		t0 := procStart
		if i > 0 {
			discard(last)
			t0 = time.Now()
			meter.speed()
		}
		v, err := build()
		if err != nil {
			return last, nil, err
		}
		d := time.Since(t0).Seconds()
		ds = append(ds, d*meter.speed())
		last = v
	}
	return last, ds, nil
}

func runEndToEnd(o options, rec *record, res *result, fails *failures) (int64, error) {
	w := workers()
	meter := startSpeedMeter()
	defer meter.close()
	m := res.Metrics
	set := func(name string, v float64) { m[name] = metric{Value: v, Unit: endToEnd[name]} }
	pct := func(name string, s samples, p float64) {
		v, ok := s.percentile(p)
		set(name, v)
		rec.Samples[name] = len(s)
		rec.Stable[name] = ok
	}
	switch o.workload {
	case "synth", "margin":
		b, setups, err := timedSetup(meter, func() (*batch, error) {
			if o.workload == "synth" {
				return synthBatch(o.root, o.seed, o.scale, w)
			}
			return marginBatch(o.seed, o.scale, w)
		}, func(*batch) {})
		if err != nil {
			return 0, err
		}
		rec.SetupS = setups
		rec.Corpus["nets"] = len(b.items)
		rec.Corpus["digest"] = digest(b.items)
		ref := b.verify(w, fails)
		rec.Extra["distinct_canonical_hashes"] = ref.distinct
		rec.Extra["engine_cache_capacity"] = engineCacheCapacity
		rec.Extra["working_set_entries"] = ref.workingSet
		rec.Extra["verify_cold_hit_ratio"] = ref.coldHitRatio
		rec.Extra["verify_twin_hit_ratio"] = ref.twinHitRatio
		if o.workload == "synth" && o.scale >= 1 && ref.workingSet <= engineCacheCapacity {
			rec.SelfChecks = append(rec.SelfChecks, fmt.Sprintf(
				"synth working set %d entries does not exceed the %d-entry engine cache", ref.workingSet, engineCacheCapacity))
		}
		a0 := mallocs()
		br := b.measure(w, o.seconds, ref, meter, fails)
		set("allocs_per_op", float64(mallocs()-a0)/float64(len(br.all)))
		rec.Extra["rounds"] = br.rounds
		rec.Extra["cold_hit_ratio"] = br.coldHit
		rec.Extra["twin_hit_ratio"] = br.twinHit
		set("setup_s", median(setups))
		set("nets_per_s", br.median(func(r roundStats) float64 { return r.ColdRate }))
		set("twin_nets_per_s", br.median(func(r roundStats) float64 { return r.TwinRate }))
		set("req_per_s", br.median(func(r roundStats) float64 { return r.ReqRate }))
		pct("net_p50_ms", br.cold, 0.50)
		pct("net_p99_ms", br.cold, 0.99)
		pct("req_p50_ms", br.all, 0.50)
		pct("req_p99_ms", br.all, 0.99)
		set("c_lines", float64(ref.table.cLines))
		set("code_cycles", float64(ref.table.cycles))
		set("peak_rss_mb", peakRSSMB())
		return int64(len(br.all) + 2*len(b.items)), nil
	default:
		sl := &serveLoad{seed: o.seed}
		st, setups, err := timedSetup(meter, func() (*stack, error) {
			sl.catalog, sl.fresh = serveCorpus(o.seed, o.scale, o.seconds)
			st, err := bootStack(nil, nil)
			if err != nil {
				return nil, err
			}
			sl.ref = sl.warm(st, fails)
			return st, nil
		}, func(st *stack) { st.close() })
		if err != nil {
			return 0, err
		}
		defer st.close()
		sl.st = st
		rec.SetupS = setups
		rec.Corpus["catalog"] = len(sl.catalog)
		rec.Corpus["fresh_pool"] = len(sl.fresh)
		rec.Corpus["digest"] = digest(append(append([]item(nil), sl.catalog...), sl.fresh...))
		a0 := mallocs()
		sr := sl.measure(o.seconds, meter, fails)
		n := len(sr.all)
		set("allocs_per_op", float64(mallocs()-a0)/float64(n))
		rec.Extra["fresh_pool_exhausted"] = sr.exhausted
		rec.Extra["stats"] = st.coord.StatsReport().Requests
		set("setup_s", median(setups))
		rec.Extra["window_rel_speed"] = sr.speeds
		set("req_per_s", sr.reqRate)
		set("nets_per_s", sr.freshRate)
		set("twin_nets_per_s", sr.twinRate)
		pct("req_p50_ms", sr.all, 0.50)
		pct("req_p99_ms", sr.all, 0.99)
		pct("net_p50_ms", sr.fresh, 0.50)
		pct("net_p99_ms", sr.fresh, 0.99)
		set("peak_rss_mb", peakRSSMB())
		eng := engine.New(engine.Config{Workers: w})
		t := synthesizeAll(eng, sl.catalog, fails)
		eng.Close()
		set("c_lines", float64(t.cLines))
		set("code_cycles", float64(t.cycles))
		return int64(n + setupReps*len(sl.catalog)), nil
	}
}

// emit prints the run record, writes it with the result under
// .bench_build/records, and prints the result as the last line.
func emit(o options, rec *record, res *result, out io.Writer) error {
	raw, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	dir := filepath.Join(o.root, ".bench_build", "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.jsonl", o.workload, o.seed, o.trace)
	if err := os.WriteFile(filepath.Join(dir, name), append(append(raw, '\n'), append(line, '\n')...), 0o644); err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", raw, line)
	return err
}
