package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call, kept in memory until the run ends. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	name       string
	parent     int // index into tracer.spans; -1 for a root
	op         int // op id shared by every span of one op
	start, end int64
}

// tracer records spans from the benchmark's single goroutine. When
// off, begin returns -1 and end ignores it, so untraced runs pay one
// branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: t.op, start: int64(time.Since(t.epoch))})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by the union of its children (children may nest or
// overlap; the parts of a child outside its parent do not count).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		ch := kids[i]
		if len(ch) == 0 {
			continue
		}
		iv := make([][2]int64, 0, len(ch))
		for _, c := range ch {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for j, x := range iv {
			if j == 0 || x[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		covered += curHi - curLo
		self[i] -= covered
	}
	return self
}

// layerTime is the aggregate self time of one span name.
type layerTime struct {
	name  string
	calls int
	self  int64 // ns
}

// layerTimes aggregates self time by span name, sorted by name.
func layerTimes(spans []span) []layerTime {
	self := selfTimes(spans)
	byName := map[string]*layerTime{}
	for i, s := range spans {
		lt := byName[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			byName[s.name] = lt
		}
		lt.calls++
		lt.self += self[i]
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// writeLayerTable prints each span name's calls and self time, per op
// and as a share of all traced time.
func writeLayerTable(w io.Writer, lts []layerTime, ops int) {
	var total int64
	for _, lt := range lts {
		total += lt.self
	}
	fmt.Fprintf(w, "%-22s %8s %14s %8s\n", "span", "calls", "self ms/op", "share")
	for _, lt := range lts {
		fmt.Fprintf(w, "%-22s %8d %14.3f %7.1f%%\n", lt.name, lt.calls,
			float64(lt.self)/1e6/float64(ops), 100*float64(lt.self)/float64(total))
	}
}

// traceEvent is one Chrome trace-event "complete" event (viewable in
// Perfetto or chrome://tracing).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON to path;
// opKeys names each op id, and meta lands under "otherData".
func writeChromeTrace(path string, spans []span, opKeys map[int]string, meta map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		cat, _, _ := strings.Cut(s.name, ".")
		events[i] = traceEvent{
			Name: s.name, Cat: cat, Ph: "X", PID: 1, TID: 1,
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"op": s.op},
		}
		if s.parent < 0 {
			events[i].Args["key"] = opKeys[s.op]
		}
	}
	err = json.NewEncoder(bw).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
