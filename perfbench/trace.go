package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Spans of one HTTP request share the
// request id the client sends as X-Ptucker-Request-Id.
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Req    string    `json:"req,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory for the whole run; they are written out once,
// after measuring, so recording costs a lock and an append. Room for a
// traced serve run's spans is made up front, so the list does not grow, and
// copy, under the lock while requests are being timed. A nil *tracer
// records nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{spans: make([]span, 0, 1<<19)}
}

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent int64, req string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return id
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes computes each span's self time from its recorded children.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = selfTime(interval{s.Start, s.End}, kids[s.ID])
	}
	return out
}

// writeSpans writes one JSON object per span, with its self time, to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for _, s := range spans {
		rec := struct {
			span
			DurUS  float64 `json:"dur_us"`
			SelfUS float64 `json:"self_us"`
		}{s, us(s.dur()), us(self[s.ID])}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setParent links a recorded span to its parent after the fact, for spans
// whose parent was not known when they ended (a handler span's client span
// ends later and is matched by request id).
func (t *tracer) setParent(id, parent int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Parent = parent
}
