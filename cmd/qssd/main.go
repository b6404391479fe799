// Command qssd is the front end of the concurrent analysis engine. It
// runs in four modes:
//
//   - Batch (default): load a corpus of nets — from a manifest file,
//     from .pn files on the command line, or generated on the fly —
//     analyse them concurrently through the shared content-addressed
//     cache, and write one JSON report with per-net results, per-net
//     phase traces and timings plus the engine's cache, worker and
//     lifetime-trace counters.
//   - Service ("qssd serve"): expose the engine as a long-running
//     sharded HTTP/JSON service (see docs/SERVICE.md).
//   - Coordinator ("qssd coord"): the fault-tolerant multi-host front
//     door — route requests across N serve hosts by canonical-hash
//     prefix with circuit breakers, hedged retries, journal reissue
//     and degraded stale serving (see docs/SERVICE.md).
//   - Client ("qssd -server URL"): drive the corpus through a running
//     service (or coordinator) instead of an in-process engine and emit
//     the same JSON batch report, plus request throughput, availability
//     and latency percentiles.
//   - Merge ("qssd -merge"): fold several journals (e.g. the per-shard
//     journals a service writes) into one compacted journal.
//
// Usage:
//
//	qssd [-manifest list.txt] [-gen N] [-gen-seed S] [-workers W]
//	     [-repeat R] [-compare-serial] [-cpuprofile f] [-trace f]
//	     [-journal f.jsonl] [-resume] [-job-timeout d] [-submit-window W]
//	     [-server URL] [-o report.json] [file.pn ...]
//	qssd -merge -journal out.jsonl in1.jsonl [in2.jsonl ...]
//	qssd serve [-addr host:port] [-shards N] [-journal-dir dir]
//	     [-workers W] [-submit-window W] [-job-timeout d]
//	qssd coord -backends url1,url2[,...] [-addr host:port] [-journal f]
//	     [-merge-journals glob] [-hedge-after d] [-retries N]
//
// A manifest is a text file with one .pn path per line ('#' comments);
// relative paths resolve against the manifest's directory.
//
// Robustness flags: -job-timeout bounds each net's analysis (past it the
// job is cancelled and reported "timeout" with its partial report);
// -submit-window bounds how many jobs are in flight at once (the
// engine's backpressure); -journal appends one JSON line per completed
// job so a killed run can be picked up with -resume, which re-analyses
// only the nets whose canonical hash has no "ok" journal entry and
// quarantines the ones journalled as panicked.
//
// The corpus runs as one *cold* pass (every net analysed once against an
// empty cache) followed by R-1 *warm* passes against the now-populated
// cache, all through one engine. The two regimes are reported separately
// — cold_nets_per_sec measures analysis throughput, warm_nets_per_sec
// measures cache-hit throughput — because averaging them produced a
// meaningless blended figure. -compare-serial reruns only the cold pass
// on a fresh one-worker engine; speedup is the cold-pass ratio, the only
// one where the workers have real work to parallelise. gomaxprocs and
// num_cpu are recorded so a ~1.0 speedup on a single-CPU host reads as
// the hardware bound it is, not an engine defect.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"time"

	"fcpn/internal/engine"
	"fcpn/internal/journal"
	"fcpn/internal/petri"
	"fcpn/internal/timing"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qssd:", err)
		os.Exit(1)
	}
}

// run is the testable core of the command: it dispatches between the
// service modes ("serve" and "coord" subcommands) and the flag-driven
// batch / client / merge modes.
func run(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			return runServe(args[1:], stdout)
		case "coord":
			return runCoord(args[1:], stdout)
		}
	}
	return runBatch(args, stdout)
}

func runBatch(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("qssd", flag.ContinueOnError)
	manifest := fs.String("manifest", "", "text file listing .pn files, one per line")
	gen := fs.Int("gen", 0, "generate N schedulable pipeline nets instead of/alongside files")
	genSeed := fs.Uint64("gen-seed", 1, "first seed for -gen (seeds S..S+N-1)")
	workers := fs.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	repeat := fs.Int("repeat", 1, "analyse the corpus this many times through one engine (pass 1 cold, the rest warm)")
	compareSerial := fs.Bool("compare-serial", false, "also run the cold pass on one worker and report the speedup")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the batch to this file")
	execTrace := fs.String("trace", "", "write a runtime/trace execution trace of the batch to this file")
	journalPath := fs.String("journal", "", "append one JSON line per completed job to this file (crash-safe checkpoint)")
	resume := fs.Bool("resume", false, "skip nets already journalled \"ok\" (requires -journal)")
	compact := fs.Bool("compact", false, "rewrite -journal to one line per canonical hash (later entries win) and exit")
	merge := fs.Bool("merge", false, "fold the positional journal files into -journal (later files win) and exit")
	jobTimeout := fs.Duration("job-timeout", 0, "per-net analysis deadline (0 = none)")
	submitWindow := fs.Int("submit-window", 0, "max jobs in flight at once (0 = 2x workers)")
	mkFlag := fs.String("mk", "", "check each schedulable net against the weakly-hard (m,k) constraint, e.g. -mk 9,10")
	marginFlag := fs.Bool("margin", false, "with -mk: search per-net overload margins (burst and overrun)")
	serverURL := fs.String("server", "", "drive the corpus through a running qssd service at this base URL instead of an in-process engine")
	out := fs.String("o", "", "write the JSON report to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateEngineFlags(*workers, *submitWindow, *jobTimeout); err != nil {
		return err
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat must be >= 1 (1 = one cold pass), got %d", *repeat)
	}
	if *resume && *journalPath == "" {
		return fmt.Errorf("-resume requires -journal")
	}
	if *compact {
		if *journalPath == "" {
			return fmt.Errorf("-compact requires -journal")
		}
		before, after, err := journal.Compact(*journalPath)
		if err != nil {
			return fmt.Errorf("compacting journal: %w", err)
		}
		fmt.Fprintf(stdout, "compacted %s: %d lines -> %d entries\n", *journalPath, before, after)
		return nil
	}
	if *merge {
		if *journalPath == "" {
			return fmt.Errorf("-merge requires -journal (the output file)")
		}
		inputs := fs.Args()
		if len(inputs) == 0 {
			return fmt.Errorf("-merge requires input journal files as arguments")
		}
		lines, entries, err := journal.Merge(*journalPath, inputs)
		if err != nil {
			return fmt.Errorf("merging journals: %w", err)
		}
		fmt.Fprintf(stdout, "merged %d journals: %d lines -> %d entries\n", len(inputs), lines, entries)
		return nil
	}

	sources, nets, err := loadCorpus(*manifest, fs.Args(), *gen, *genSeed)
	if err != nil {
		return err
	}
	if len(nets) == 0 {
		return fmt.Errorf("empty corpus: give .pn files, -manifest, or -gen")
	}

	if *serverURL != "" {
		return runClient(clientConfig{
			BaseURL: *serverURL,
			Workers: *workers,
			Repeat:  *repeat,
			Out:     *out,
		}, sources, nets, stdout)
	}

	var prior map[string]journal.Entry
	if *resume {
		if prior, err = journal.Read(*journalPath); err != nil {
			return fmt.Errorf("reading journal: %w", err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}

	var topts engine.TimingOptions
	if *mkFlag != "" {
		c, err := timing.Parse(*mkFlag)
		if err != nil {
			return err
		}
		topts = engine.TimingOptions{MK: c, Margin: *marginFlag}
	} else if *marginFlag {
		return fmt.Errorf("-margin requires -mk")
	}

	// One engine for every pass; the cold pass runs alone so its timings
	// are not diluted by cache-hit jobs (and its speedup is measured
	// against real work).
	e := engine.New(engine.Config{
		Workers:      *workers,
		SubmitWindow: *submitWindow,
		JobTimeout:   *jobTimeout,
		Timing:       topts,
	})

	// Split the corpus against the journal: nets journalled "ok" are
	// rehydrated without re-analysis; journalled panics re-seed the
	// engine's quarantine so the poisoned net is refused, not re-run.
	// Without a journal no net is hashed here, so the canonical form is
	// computed inside the engine's job, under its petri/canonical span.
	final := make([]netResult, len(nets))
	var todo []int
	for i, n := range nets {
		if len(prior) == 0 {
			todo = append(todo, i)
			continue
		}
		hash := n.CanonicalHash()
		if ent, ok := prior[hash]; ok {
			switch ent.Status {
			case string(engine.StatusOK), statusSkippedResume:
				// A report that does not decode is analysed again.
				if rep, ok := decodeReport(ent.Report); ok {
					final[i] = netResult{
						Source: sources[i],
						Status: statusSkippedResume,
						Report: rep,
					}
					continue
				}
			case string(engine.StatusPanicked), string(engine.StatusQuarantined):
				e.Quarantine(hash, "journalled "+ent.Status+": "+ent.Error)
			}
		}
		todo = append(todo, i)
	}

	var jw *journal.Writer
	if *journalPath != "" {
		if jw, err = journal.Open(*journalPath); err != nil {
			return err
		}
	}

	todoNets := make([]*petri.Net, len(todo))
	for j, i := range todo {
		todoNets[j] = nets[i]
	}
	t0 := time.Now()
	// The streaming form journals each job the moment it completes, so a
	// kill mid-batch loses at most the in-flight jobs.
	err = e.AnalyzeEach(todoNets, func(j int, r engine.Result) {
		i := todo[j]
		final[i] = netResult{
			Source:    sources[i],
			ElapsedMS: msOf(r.Elapsed),
			Trace:     r.Trace,
			Report:    r.Report,
			Status:    string(r.Status),
		}
		if r.Err != nil {
			final[i].Error = r.Err.Error()
		}
		if jw != nil {
			raw, _ := json.Marshal(r.Report) // a NetReport has no value Marshal refuses
			jw.Record(journal.Entry{
				Hash:      r.Report.Hash,
				Source:    sources[i],
				Status:    string(r.Status),
				Error:     final[i].Error,
				ElapsedMS: msOf(r.Elapsed),
				Report:    raw,
			})
		}
	})
	if err != nil {
		return err
	}
	cold := time.Since(t0)
	if jw != nil {
		if err := jw.Close(); err != nil {
			return fmt.Errorf("writing journal: %w", err)
		}
	}
	// Warm passes rerun only the nets analysed this run (resumed nets
	// have no cache entries to hit) and are not journalled: the journal
	// records corpus completion, not throughput probes.
	var warm time.Duration
	for r := 1; r < *repeat; r++ {
		tw := time.Now()
		if _, err := e.AnalyzeBatch(todoNets); err != nil {
			return err
		}
		warm += time.Since(tw)
	}
	snap := e.Stats()
	e.Close()

	rep := batchReport{
		Workers:       e.Workers(),
		Repeat:        *repeat,
		Nets:          len(nets),
		Jobs:          len(todo) * *repeat,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		GoVersion:     runtime.Version(),
		StatusCounts:  map[string]int{},
		ColdElapsedMS: msOf(cold),
		ElapsedMS:     msOf(cold + warm),
		Stats:         &snap,
		Results:       final,
	}
	if rep.GoMaxProcs == 1 {
		rep.ParallelismWarning = "GOMAXPROCS=1: workers cannot run in parallel; speedup figures are hardware-bound at ~1.0"
	}
	if cold > 0 {
		rep.ColdNetsPerSec = float64(len(todo)) / cold.Seconds()
	}
	if *repeat > 1 && warm > 0 {
		rep.WarmElapsedMS = msOf(warm)
		rep.WarmNetsPerSec = float64(len(todo)*(*repeat-1)) / warm.Seconds()
	}
	for i := range final {
		rep.StatusCounts[final[i].Status]++
	}

	if *compareSerial {
		se := engine.New(engine.Config{Workers: 1, JobTimeout: *jobTimeout, Timing: topts})
		t0 := time.Now()
		if _, err := se.AnalyzeBatch(todoNets); err != nil {
			return err
		}
		serial := time.Since(t0)
		se.Close()
		rep.SerialColdElapsedMS = msOf(serial)
		if cold > 0 {
			rep.Speedup = float64(serial.Nanoseconds()) / float64(cold.Nanoseconds())
		}
	}

	return writeReport(&rep, *out, stdout)
}

// decodeReport decodes a journalled report; a missing one decodes to
// nil.
func decodeReport(raw json.RawMessage) (*engine.NetReport, bool) {
	if raw == nil {
		return nil, true
	}
	rep := new(engine.NetReport)
	return rep, json.Unmarshal(raw, rep) == nil
}

// validateEngineFlags rejects negative engine sizing flags up front with
// a targeted message; the engine itself treats non-positive values as
// "use the default", which would silently mask a typo like -workers -4.
func validateEngineFlags(workers, submitWindow int, jobTimeout time.Duration) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", workers)
	}
	if submitWindow < 0 {
		return fmt.Errorf("-submit-window must be >= 0 (0 = 2x workers), got %d", submitWindow)
	}
	if jobTimeout < 0 {
		return fmt.Errorf("-job-timeout must be >= 0 (0 = none), got %v", jobTimeout)
	}
	return nil
}

// writeReport emits the batch report as indented JSON to path, or to
// stdout when path is empty.
func writeReport(rep *batchReport, path string, stdout io.Writer) error {
	w := stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
