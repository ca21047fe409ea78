package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans are recorded from the benchmark's own files, around its calls
// into each package's public functions; the program itself is not
// instrumented.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"` // 0 for a request's root span
	Req    int64         `json:"req"`    // request (operation) the span belongs to
	Name   string        `json:"name"`   // "<layer>.<call>", e.g. "icfp.sim"
	Slot   int           `json:"slot"`   // pool slot or client the call ran on
	Start  time.Duration `json:"start"`  // since the tracer's epoch
	End    time.Duration `json:"end"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps a traced run's spans in memory; they are written out when
// the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// scope is a position in the span tree: the request and parent span that
// new spans attach to, and the slot they run on.
type scope struct {
	tr     *tracer
	req    int64
	parent int64
	slot   int
}

// root returns the top-level scope of request req on slot.
func (t *tracer) root(req int64, slot int) scope {
	return scope{tr: t, req: req, slot: slot}
}

// onSlot returns s moved to another slot, for work a pool goroutine does
// on the request's behalf.
func (s scope) onSlot(slot int) scope {
	s.slot = slot
	return s
}

// do runs f inside a new span named name and returns the span; f gets
// the span's own scope, so calls it makes nest under it.
func (s scope) do(name string, f func(scope)) span {
	s.tr.mu.Lock()
	s.tr.next++
	id := s.tr.next
	s.tr.mu.Unlock()
	start := time.Since(s.tr.epoch)
	f(scope{tr: s.tr, req: s.req, parent: id, slot: s.slot})
	sp := span{ID: id, Parent: s.parent, Req: s.req, Name: name, Slot: s.slot, Start: start, End: time.Since(s.tr.epoch)}
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, sp)
	s.tr.mu.Unlock()
	return sp
}

// record adds a span for an interval measured from outside a call, such
// as the stretch between two streamed response events.
func (s scope) record(name string, start, end time.Time) {
	if end.Before(start) {
		end = start
	}
	s.tr.mu.Lock()
	s.tr.next++
	s.tr.spans = append(s.tr.spans, span{
		ID: s.tr.next, Parent: s.parent, Req: s.req, Name: name, Slot: s.slot,
		Start: start.Sub(s.tr.epoch), End: end.Sub(s.tr.epoch),
	})
	s.tr.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := slices.Clone(t.spans)
	t.mu.Unlock()
	slices.SortFunc(out, func(a, b span) int {
		if a.Start != b.Start {
			return int(a.Start - b.Start)
		}
		return int(a.ID - b.ID)
	})
	return out
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // Total minus the time its child spans cover
}

// spanStats is a traced run's spans digested: per-name totals and self
// times, and the sum over leaf spans — the calls that did the work.
type spanStats struct {
	byName map[string]*layerTime
	leaf   time.Duration
}

func (st spanStats) total(name string) time.Duration {
	if lt := st.byName[name]; lt != nil {
		return lt.Total
	}
	return 0
}

func (st spanStats) count(name string) int {
	if lt := st.byName[name]; lt != nil {
		return lt.Count
	}
	return 0
}

// digest computes per-layer totals and self times. A span's self time
// is its duration minus the union of its children's intervals; children
// may overlap when a pool runs them in parallel.
func digest(spans []span) spanStats {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	st := spanStats{byName: make(map[string]*layerTime)}
	for _, s := range spans {
		lt := st.byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			st.byName[s.Name] = lt
		}
		kids := children[s.ID]
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - covered(kids)
		if len(kids) == 0 {
			st.leaf += s.dur()
		}
	}
	return st
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := slices.Clone(spans)
	slices.SortFunc(s, func(a, b span) int { return int(a.Start - b.Start) })
	var total time.Duration
	lo, hi := s[0].Start, s[0].End
	for _, x := range s[1:] {
		if x.Start > hi {
			total += hi - lo
			lo, hi = x.Start, x.End
			continue
		}
		hi = max(hi, x.End)
	}
	return total + hi - lo
}

// printSelfTimes writes the per-layer self-time table, largest first.
func printSelfTimes(w io.Writer, workload string, st spanStats) {
	rows := make([]*layerTime, 0, len(st.byName))
	var self time.Duration
	for _, lt := range st.byName {
		rows = append(rows, lt)
		self += lt.Self
	}
	slices.SortFunc(rows, func(a, b *layerTime) int {
		if a.Self != b.Self {
			return int(b.Self - a.Self)
		}
		return strings.Compare(a.Name, b.Name)
	})
	fmt.Fprintf(w, "bench: %s self time per layer (traced run)\n", workload)
	fmt.Fprintf(w, "  %-24s %7s %11s %11s %6s\n", "span", "count", "total ms", "self ms", "self%")
	for _, lt := range rows {
		share := 0.0
		if self > 0 {
			share = 100 * float64(lt.Self) / float64(self)
		}
		fmt.Fprintf(w, "  %-24s %7d %11.1f %11.1f %5.1f%%\n", lt.Name, lt.Count,
			ms(lt.Total), ms(lt.Self), share)
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans to path as a Chrome trace-event file.
// Each event carries its span ID, parent and request ID in args.
func writeChrome(path string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		cat, _, _ := strings.Cut(s.Name, ".")
		events = append(events, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			TS: us(s.Start), Dur: us(s.dur()), PID: 1, TID: s.Slot,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
