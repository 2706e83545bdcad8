package spans

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"paralleltape/internal/trace"
)

// FuzzParseBuild feeds arbitrary bytes through the trace analyzers'
// whole pipeline — trace.ParseJSONL, Build, then every renderer tapetrace
// and tapesim -explain reach — and requires that none of them panics.
// Malformed traces may be rejected with an error at any stage.
//
// Run it beyond the seed corpus with
//
//	go test ./internal/spans -run '^$' -fuzz FuzzParseBuild -fuzztime 60s
func FuzzParseBuild(f *testing.F) {
	// The golden traces (69 and 60 lines) build cleanly; the healthy one
	// cut at 60 lines leaves its last request unterminated, an error path.
	for _, name := range []string{"trace_golden.jsonl", "trace_faults_golden.jsonl"} {
		data, err := os.ReadFile("../tapesys/testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if lines := strings.SplitAfter(string(data), "\n"); len(lines) > 60 {
			f.Add([]byte(strings.Join(lines[:60], "")))
		}
	}
	f.Add([]byte("{\"t\":0,\"kind\":\"submit\",\"req\":0,\"bytes\":10}\n" +
		"{\"t\":1,\"kind\":\"complete\",\"req\":0,\"bytes\":10,\"dur\":1}\n"))
	// What trace.Event cannot hold is a parse error: a kind the schema
	// does not declare, and an index outside int32.
	f.Add([]byte("{\"t\":0,\"kind\":\"submit\",\"req\":0}\n" +
		"{\"t\":1,\"kind\":\"teleport\",\"req\":0}\n"))
	f.Add([]byte("{\"t\":0,\"kind\":\"submit\",\"req\":0}\n" +
		"{\"t\":1,\"kind\":\"seek\",\"lib\":2147483648,\"drive\":0,\"tape\":0,\"req\":0,\"span\":1}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := trace.ParseJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		s, err := Build(events)
		if err != nil {
			return
		}
		_ = WriteBreakdown(io.Discard, Aggregate(s))
		_ = WriteBreakdownCSV(io.Discard, Aggregate(s))
		_ = WriteSlowest(io.Discard, s, 3)
		for _, r := range s.Requests {
			_ = WriteExplain(io.Discard, r)
		}
		_ = WriteTimelineCSV(io.Discard, s)
		_ = s.QueueDepthPoints()
	})
}
