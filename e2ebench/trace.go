package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one unit of work (an
// allocate request, a job-loop chunk) share id; parent is the index of
// the span that caused this one, or -1.
type span struct {
	name   uint16
	parent int32
	id     uint64
	start  int64 // ns since the tracer's epoch, monotonic clock
	end    int64
}

// maxSpans caps the in-memory span list; per-name durations and counts
// keep accumulating past it, so percentiles never lose samples.
const maxSpans = 1 << 20

// tracer records spans in memory around the benchmark's calls into the
// program's layers. A nil *tracer is the untraced mode: every method is
// a no-op, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	names   []string
	index   map[string]uint16
	spans   []span
	dropped int
	durs    map[uint16]*samples // µs per span name
	counts  map[string]float64

	// ambient is the parent given to spans opened by layers that cannot
	// name one themselves (the store wrapper, the world step), for
	// workloads whose layers all run on one goroutine. -1 means none.
	ambient atomic.Int32
	// on switches span recording; a traced run turns it off for its
	// untraced reference phase.
	on atomic.Bool
}

func newTracer() *tracer {
	t := &tracer{
		epoch:  time.Now(),
		index:  make(map[string]uint16),
		durs:   make(map[uint16]*samples),
		counts: make(map[string]float64),
	}
	t.ambient.Store(-1)
	t.on.Store(true)
	return t
}

func (t *tracer) nameLocked(name string) uint16 {
	if i, ok := t.index[name]; ok {
		return i
	}
	i := uint16(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = i
	t.durs[i] = &samples{}
	return i
}

// parent returns the ambient parent for spans opened by layers that
// cannot name one.
func (t *tracer) parent() int32 {
	if t == nil {
		return -1
	}
	return t.ambient.Load()
}

// setParent sets the ambient parent (-1 for none).
func (t *tracer) setParent(i int32) {
	if t != nil {
		t.ambient.Store(i)
	}
}

// handle is an open span: its index in the span list (-1 when the span
// is past the cap or tracing is off), its name and its start.
type handle struct {
	idx   int32
	name  uint16
	start int64
	on    bool
}

// begin opens a span.
func (t *tracer) begin(name string, id uint64, parent int32) handle {
	if t == nil || !t.on.Load() {
		return handle{idx: -1}
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.nameLocked(name)
	if len(t.spans) >= maxSpans {
		t.dropped++
		return handle{idx: -1, name: n, start: now, on: true}
	}
	t.spans = append(t.spans, span{name: n, parent: parent, id: id, start: now, end: -1})
	return handle{idx: int32(len(t.spans) - 1), name: n, start: now, on: true}
}

// end closes a span opened by begin and returns its duration.
func (t *tracer) end(h handle) time.Duration {
	if t == nil || !h.on {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	if h.idx >= 0 {
		t.spans[h.idx].end = now
	}
	t.durs[h.name].add(float64(now-h.start) / 1e3)
	t.mu.Unlock()
	return time.Duration(now - h.start)
}

// count adds delta to a named counter.
func (t *tracer) count(name string, delta float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += delta
	t.mu.Unlock()
}

// durations returns the µs samples recorded under name.
func (t *tracer) durations(name string) *samples {
	if t == nil {
		return &samples{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.index[name]
	if !ok {
		return &samples{}
	}
	return t.durs[i]
}

func (t *tracer) counter(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval covered by its children (overlapping children are
// counted once). Unfinished spans have self time 0.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && int(s.parent) < len(spans) {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		iv = iv[:0]
		for _, c := range children[i] {
			cs, ce := spans[c].start, spans[c].end
			if ce < cs {
				continue
			}
			if cs < s.start {
				cs = s.start
			}
			if ce > s.end {
				ce = s.end
			}
			if ce > cs {
				iv = append(iv, [2]int64{cs, ce})
			}
		}
		out[i] = (s.end - s.start) - unionLength(iv)
	}
	return out
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
			continue
		}
		if x[1] > ce {
			ce = x[1]
		}
	}
	return total + ce - cs
}

// selfBy returns the self time (µs) of every span named name.
func (t *tracer) selfBy(name string) *samples {
	if t == nil {
		return &samples{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.index[name]
	out := &samples{}
	if !ok {
		return out
	}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		if s.name == n && s.end >= s.start {
			out.add(float64(self[i]) / 1e3)
		}
	}
	return out
}

// writeJSONL writes at most limit spans to path as JSON lines.
func (t *tracer) writeJSONL(path string, limit int) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for i, s := range t.spans {
		if i >= limit {
			break
		}
		fmt.Fprintf(w, "{\"i\":%d,\"name\":%q,\"id\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, t.names[s.name], s.id, s.parent, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
