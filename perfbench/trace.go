package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call recorded by the traced run. Spans of one item
// (an image or a request) share Item; Parent links a call to the call
// that made it. Blocking spans lie on the path the workload waits for;
// replay spans re-run a lower layer's public function off that path to
// apportion a blocking span, and never nest inside one.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Item     int    `json:"item"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Blocking bool   `json:"blocking"`
	// Mpix is the source size of the item a root of an item's calls
	// covers (0 elsewhere); a layer's time per Mpix divides by the Mpix of
	// the items its spans worked on.
	Mpix float64 `json:"mpix,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span; end records it.
type open struct {
	t *tracer
	s span
}

// start opens a span under parent (0 for a root).
func (t *tracer) start(name string, parent int64, item int, blocking bool) *open {
	return &open{t: t, s: span{
		ID: t.next.Add(1), Parent: parent, Name: name, Item: item,
		Blocking: blocking, Start: int64(time.Since(t.t0)),
	}}
}

// covering records the size of the item the span covers.
func (o *open) covering(mpix float64) *open {
	o.s.Mpix = mpix
	return o
}

// id is the span's identifier, for children to name as their parent.
func (o *open) id() int64 { return o.s.ID }

// end closes the span and returns its duration.
func (o *open) end() time.Duration {
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s.dur()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int64, item int, blocking bool, fn func()) time.Duration {
	o := t.start(name, parent, item, blocking)
	fn()
	return o.end()
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// perMpix is the time of the spans called name per Mpix of the items
// they worked on (each item counted once however many spans it has), in
// ms/Mpix, and that Mpix; both are 0 without such spans.
func (t *tracer) perMpix(name string) (float64, float64) {
	byID := make(map[int64]span, len(t.spans))
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	var d time.Duration
	items := map[int64]float64{}
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		d += s.dur()
		for a, ok := s, true; ok; a, ok = byID[a.Parent] {
			if a.Mpix > 0 {
				items[a.ID] = a.Mpix
				break
			}
		}
	}
	var mp float64
	for _, m := range items {
		mp += m
	}
	if mp == 0 {
		return 0, 0
	}
	return ms(d) / mp, mp
}

// durations lists the durations of every span called name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// childTotal sums the durations of the spans called child whose parent
// is a span called parent.
func (t *tracer) childTotal(parent, child string) time.Duration {
	parents := map[int64]bool{}
	for _, s := range t.spans {
		if s.Name == parent {
			parents[s.ID] = true
		}
	}
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == child && parents[s.Parent] {
			d += s.dur()
		}
	}
	return d
}

// selfTimes maps each span to its self time: its duration minus the
// part of its interval that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// validate checks the trace's structure: no child outlasts its parent,
// and for every blocking span named itemSpan the self times of its
// blocking subtree add up to its duration — the per-stage times of an
// item account for all of it, with no overlap and no gap unaccounted.
func validate(spans []span, itemSpan string) error {
	byID := make(map[int64]span, len(spans))
	children := make(map[int64][]span)
	for _, s := range spans {
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %s names missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] outlasts parent %d %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	self := selfTimes(spans)
	var walk func(id int64) time.Duration
	walk = func(id int64) time.Duration {
		t := self[id]
		for _, k := range children[id] {
			if k.Blocking {
				t += walk(k.ID)
			}
		}
		return t
	}
	for _, s := range spans {
		if s.Name != itemSpan || !s.Blocking {
			continue
		}
		if got := walk(s.ID); got != s.dur() {
			return fmt.Errorf("item %d: stage self times sum to %v, item span is %v", s.Item, got, s.dur())
		}
	}
	return nil
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
