// Command tapetrace analyzes a structured event trace exported by tapesim
// -trace: it reconstructs the causal span tree of every request
// (internal/spans) and answers "where did the time go?" — per-phase
// critical-path breakdowns, the slowest requests with their full causal
// story, and queue-depth / component-busy time series.
//
// The analysis is deterministic: the same trace file always renders the
// same bytes (docs/OBSERVABILITY.md).
//
// Usage:
//
//	tapetrace breakdown [-csv] trace.jsonl
//	tapetrace slowest [-n 5] trace.jsonl
//	tapetrace timeline trace.jsonl
//
// A path of "-" reads the trace from stdin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"paralleltape/internal/spans"
	"paralleltape/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "tapetrace:", err)
		os.Exit(1)
	}
}

// usage is the top-level help text.
const usage = `usage: tapetrace <command> [flags] <trace.jsonl>

commands:
  breakdown   per-phase critical-path latency attribution for the whole run
  slowest     the slowest requests, each with its critical path
  timeline    queue-depth and component-busy time series as CSV

A trace path of "-" reads from stdin. Traces are the JSONL files written
by tapesim -trace (docs/OBSERVABILITY.md).`

// run dispatches the subcommand; out and stdin are injectable for tests.
func run(args []string, out io.Writer, stdin io.Reader) error {
	if len(args) < 1 {
		return fmt.Errorf("missing command\n%s", usage)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "breakdown":
		fs := flag.NewFlagSet("breakdown", flag.ContinueOnError)
		csv := fs.Bool("csv", false, "emit the breakdown as CSV")
		s, err := parseAndBuild(fs, rest, stdin)
		if err != nil {
			return err
		}
		b := spans.Aggregate(s)
		if *csv {
			return spans.WriteBreakdownCSV(out, b)
		}
		return spans.WriteBreakdown(out, b)
	case "slowest":
		fs := flag.NewFlagSet("slowest", flag.ContinueOnError)
		n := fs.Int("n", 5, "number of requests to show")
		s, err := parseAndBuild(fs, rest, stdin)
		if err != nil {
			return err
		}
		if *n < 0 {
			return fmt.Errorf("-n must not be negative, got %d", *n)
		}
		return spans.WriteSlowest(out, s, *n)
	case "timeline":
		fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
		s, err := parseAndBuild(fs, rest, stdin)
		if err != nil {
			return err
		}
		return spans.WriteTimelineCSV(out, s)
	case "help", "-h", "-help", "--help":
		fmt.Fprintln(out, usage)
		return nil
	default:
		return fmt.Errorf("unknown command %q\n%s", cmd, usage)
	}
}

// parseAndBuild parses subcommand flags, reads the trace argument, and
// reconstructs the session.
func parseAndBuild(fs *flag.FlagSet, args []string, stdin io.Reader) (*spans.Session, error) {
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("expected exactly one trace file argument\n%s", usage)
	}
	path := fs.Arg(0)
	var r io.Reader
	if path == "-" {
		r = stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	events, err := trace.ParseJSONL(r)
	if err != nil {
		return nil, err
	}
	return spans.Build(events)
}
