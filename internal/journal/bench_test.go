package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fcpn/internal/engine"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// benchReports is the number of reports in the benchmark journal.
const benchReports = 2000

var benchFixture struct {
	once  sync.Once
	lines [][]byte
}

// benchLines returns one journal line per report of benchReports
// generated pipelines (netgen.DefaultConfig, seeds 1..benchReports),
// written as raw JSON, so the benchmarks time the readers and not the
// encoding of Entry.
func benchLines(b *testing.B) [][]byte {
	b.Helper()
	benchFixture.once.Do(func() {
		nets := make([]*petri.Net, benchReports)
		for i := range nets {
			nets[i] = netgen.RandomSchedulablePipeline(uint64(i+1), netgen.DefaultConfig())
		}
		e := engine.New(engine.Config{})
		defer e.Close()
		res, err := e.AnalyzeBatch(nets)
		if err != nil {
			panic(err)
		}
		for i, r := range res {
			raw, err := json.Marshal(r.Report)
			if err != nil {
				panic(err)
			}
			benchFixture.lines = append(benchFixture.lines, fmt.Appendf(nil,
				`{"hash":%q,"source":"gen:%d","status":%q,"elapsed_ms":1.25,"report":%s}`+"\n",
				r.Report.Hash, i+1, r.Status, raw))
		}
	})
	return benchFixture.lines
}

// writeBenchJournal writes lines to a file under dir.
func writeBenchJournal(b *testing.B, dir, name string, lines [][]byte) string {
	b.Helper()
	var buf []byte
	for _, l := range lines {
		buf = append(buf, l...)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkJournalRead folds a journal of benchReports reports.
func BenchmarkJournalRead(b *testing.B) {
	path := writeBenchJournal(b, b.TempDir(), "j.jsonl", benchLines(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := Read(path)
		if err != nil || len(got) == 0 {
			b.Fatalf("read %d entries: %v", len(got), err)
		}
	}
}

// BenchmarkJournalMerge merges two shard journals that hold half the
// reports each into one compacted journal.
func BenchmarkJournalMerge(b *testing.B) {
	lines := benchLines(b)
	dir := b.TempDir()
	inputs := []string{
		writeBenchJournal(b, dir, "shard-0.jsonl", lines[:len(lines)/2]),
		writeBenchJournal(b, dir, "shard-1.jsonl", lines[len(lines)/2:]),
	}
	out := filepath.Join(dir, "merged.jsonl")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n, err := Merge(out, inputs); err != nil || n == 0 {
			b.Fatalf("merge into %d entries: %v", n, err)
		}
	}
}
