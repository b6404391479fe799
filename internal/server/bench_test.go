package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fcpn/internal/engine"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// BenchmarkServerReplay boots a one-shard service over a journal
// directory holding the reports of 2,000 generated pipelines
// (netgen.DefaultConfig, seeds 1..2000), written as raw JSON lines:
// each iteration replays them into the report store.
func BenchmarkServerReplay(b *testing.B) {
	nets := make([]*petri.Net, 2000)
	for i := range nets {
		nets[i] = netgen.RandomSchedulablePipeline(uint64(i+1), netgen.DefaultConfig())
	}
	e := engine.New(engine.Config{})
	res, err := e.AnalyzeBatch(nets)
	e.Close()
	if err != nil {
		b.Fatal(err)
	}
	var journal []byte
	for i, r := range res {
		raw, err := json.Marshal(r.Report)
		if err != nil {
			b.Fatal(err)
		}
		journal = fmt.Appendf(journal, `{"hash":%q,"source":"gen:%d","status":%q,"elapsed_ms":1.25,"report":%s}`+"\n",
			r.Report.Hash, i+1, r.Status, raw)
	}
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-0.jsonl"), journal, 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(Config{Engine: engine.Config{Workers: 1}, JournalDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if got := s.shards[0].size(); got == 0 {
			b.Fatal("replay stored no reports")
		}
		s.Close()
	}
}
