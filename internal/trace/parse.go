package trace

// Trace re-import: the offline analyzers (cmd/tapetrace, internal/spans)
// consume traces exported earlier in a run or a different process, so the
// schema needs a reader to match the JSONL writer. Parsing restores the
// writer's omission rules exactly — an absent index key becomes -1, an
// absent numeric key becomes 0 — so Parse(Write(events)) round-trips every
// event field.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// jsonEvent mirrors Event for decoding: the index fields are pointers so
// an omitted key (meaning -1 under the schema's omission rules) is
// distinguishable from an explicit 0. They are int32 like Event's, so
// encoding/json rejects a value outside int32 instead of wrapping it.
type jsonEvent struct {
	T     float64 `json:"t"`
	Kind  string  `json:"kind"`
	Lib   *int32  `json:"lib"`
	Drive *int32  `json:"drive"`
	Tape  *int32  `json:"tape"`
	Req   *int64  `json:"req"`
	Span  int64   `json:"span"`
	Bytes int64   `json:"bytes"`
	Dur   float64 `json:"dur"`
	Queue int32   `json:"queue"`
	Name  string  `json:"name"`
}

// ParseJSONL reads a JSONL trace (as written by JSONLWriter) back into an
// event slice. Blank lines are skipped; a malformed line fails with its
// 1-based line number, and so does a line whose kind is not a declared
// Kind or whose lib, drive, tape or queue lies outside int32: the event
// types cannot hold either. Unknown keys are ignored.
func ParseJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		kind, ok := ParseKind(je.Kind)
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", line, je.Kind)
		}
		ev := Event{
			T: je.T, Kind: kind,
			Lib: -1, Drive: -1, Tape: -1, Req: -1,
			Span: je.Span, Bytes: je.Bytes, Dur: je.Dur, Queue: je.Queue, Name: je.Name,
		}
		if je.Lib != nil {
			ev.Lib = *je.Lib
		}
		if je.Drive != nil {
			ev.Drive = *je.Drive
		}
		if je.Tape != nil {
			ev.Tape = *je.Tape
		}
		if je.Req != nil {
			ev.Req = *je.Req
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return events, nil
}
