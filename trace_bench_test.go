package paralleltape

// Layer benchmarks for recording and analyzing a trace. Each runs one
// consumer over the trace of tapesim's default object-probability run of
// 200 requests (seed 20060815), recorded once per process, and reports its
// cost per event:
//
//	go test -run '^$' -bench 'JSONLWriter|CollectorRecord|SpansBuild|BuildTimeline' -benchmem

import (
	"io"
	"sync"
	"testing"

	"paralleltape/internal/metrics"
	"paralleltape/internal/rng"
	"paralleltape/internal/spans"
	"paralleltape/internal/telemetry"
	"paralleltape/internal/trace"
	"paralleltape/internal/workload"
)

// observedTrace records the benchmark trace: Table 1 hardware, the §6
// generator, object-probability placement, and the first 200 requests of
// tapesim's request stream for the seed.
var observedTrace = sync.OnceValues(func() ([]trace.Event, error) {
	const seed, requests = 20060815, 200
	hw := DefaultHardware()
	w, err := GenerateWorkload(DefaultWorkloadParams(), seed)
	if err != nil {
		return nil, err
	}
	pl, err := Place(hw, NewObjectProbability(), w)
	if err != nil {
		return nil, err
	}
	sys, err := NewSystem(hw, pl)
	if err != nil {
		return nil, err
	}
	buf := sys.EnableTrace(0)
	stream, err := workload.NewRequestStream(w, rng.New(seed^0xDEADBEEF))
	if err != nil {
		return nil, err
	}
	for range requests {
		if _, err := sys.Submit(stream.Next()); err != nil {
			return nil, err
		}
	}
	return buf.Events, nil
})

// benchTrace runs consume over the benchmark trace b.N times and reports
// the time per event.
func benchTrace(b *testing.B, consume func([]trace.Event) error) {
	events, err := observedTrace()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := consume(events); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}

// BenchmarkJSONLWriter measures the JSONL exporter (tapesim -trace).
func BenchmarkJSONLWriter(b *testing.B) {
	benchTrace(b, func(events []trace.Event) error {
		w := trace.NewJSONLWriter(io.Discard)
		for _, ev := range events {
			w.Record(ev)
		}
		return w.Close()
	})
}

// BenchmarkCollectorRecord measures the live-telemetry collector
// (tapesim -metrics-addr, -progress).
func BenchmarkCollectorRecord(b *testing.B) {
	benchTrace(b, func(events []trace.Event) error {
		c := telemetry.NewCollector(telemetry.NewRegistry())
		for _, ev := range events {
			c.Record(ev)
		}
		return nil
	})
}

// BenchmarkSpansBuild measures span reconstruction (tapesim -explain,
// tapetrace).
func BenchmarkSpansBuild(b *testing.B) {
	benchTrace(b, func(events []trace.Event) error {
		_, err := spans.Build(events)
		return err
	})
}

// BenchmarkBuildTimeline measures the run report's aggregation (tapesim
// -report), which builds the span session for its phase section.
func BenchmarkBuildTimeline(b *testing.B) {
	benchTrace(b, func(events []trace.Event) error {
		if metrics.BuildTimeline(events).Phases == nil {
			b.Fatal("trace did not reconstruct into spans")
		}
		return nil
	})
}
