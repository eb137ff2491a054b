package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// spanLog records spans around the benchmark's calls into the program. It
// keeps them in memory and writes them out once, at the end, as a Chrome
// trace-event file.
type spanLog struct {
	t0     time.Time
	spans  []span
	open   []int // stack of open span indices
	paused bool
}

type span struct {
	name       string
	start, end time.Duration
	parent     int // index of the enclosing span, -1 at top level
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// reserve makes room for n more spans, so recording them allocates
// nothing while the profiles run.
func (l *spanLog) reserve(n int) {
	if l != nil {
		l.spans = slices.Grow(l.spans, n)
	}
}

// pause stops or resumes recording. Call it only with no span open that
// was begun in the other state.
func (l *spanLog) pause(p bool) {
	if l != nil {
		l.paused = p
	}
}

// begin opens a span nested in the innermost open one. A nil or paused log
// records nothing, so untraced runs pay one nil check.
func (l *spanLog) begin(name string) {
	if l == nil || l.paused {
		return
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{name: name, start: time.Since(l.t0), parent: parent})
	l.open = append(l.open, len(l.spans)-1)
}

func (l *spanLog) end() {
	if l == nil || l.paused {
		return
	}
	n := len(l.open) - 1
	l.spans[l.open[n]].end = time.Since(l.t0)
	l.open = l.open[:n]
}

func (l *spanLog) write(dir, workload string, seed uint64, man map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "metadata": man}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
