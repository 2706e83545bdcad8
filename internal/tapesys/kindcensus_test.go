package tapesys

// Trace-kind census: every event kind the schema declares
// (trace.Kinds()) must appear in at least one golden trace fixture and
// in at least one row of the kind tables in docs/OBSERVABILITY.md. A
// kind that fails the census is either dead schema (remove it) or an
// untested, undocumented emission path (extend the golden scenario and
// the document). This keeps the fixtures and the reference honest as
// kinds are added.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paralleltape/internal/trace"
)

func TestTraceKindCensus(t *testing.T) {
	var fixtures strings.Builder
	for _, name := range []string{"trace_golden.jsonl", "trace_faults_golden.jsonl"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		fixtures.Write(raw)
	}
	docs, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := trace.Kinds()
	if len(kinds) == 0 {
		t.Fatal("trace.Kinds() is empty")
	}
	for _, k := range kinds {
		if !strings.Contains(fixtures.String(), `"kind":"`+k.String()+`"`) {
			t.Errorf("kind %q appears in no golden fixture — extend the golden scenarios", k)
		}
		if !strings.Contains(string(docs), "| `"+k.String()+"` |") {
			t.Errorf("kind %q has no table row in docs/OBSERVABILITY.md", k)
		}
	}
}
