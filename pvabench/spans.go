package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one layer call the traced replay made: its name, its interval
// on the recorder's clock, the span that caused it, and the cell it
// served (-1 when it served no single cell).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   int    `json:"cell"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// recorder keeps spans in memory for one goroutine. A recorder that is
// off records nothing, so the same replay code runs traced and untraced
// and the difference between the two is the tracing overhead.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int // stack of unfinished span ids
}

func newRecorder() *recorder { return &recorder{on: true, epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string, cell int) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Cell: cell,
		Start: int64(time.Since(r.epoch))})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// rename renames span id.
func (r *recorder) rename(id int, name string) {
	if id >= 0 {
		r.spans[id].Name = name
	}
}

// count returns how many spans named name were recorded since from.
func (r *recorder) count(from int, name string) int {
	n := 0
	for _, s := range r.spans[from:] {
		if s.Name == name {
			n++
		}
	}
	return n
}

// mark returns a position; totals(mark) covers the spans recorded after it.
func (r *recorder) mark() int { return len(r.spans) }

// totals sums span durations by name over the spans recorded since from.
func (r *recorder) totals(from int) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range r.spans[from:] {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// fillSelf sets every span's self time: its duration minus the part of
// its interval its children cover. Children of one span never overlap,
// because one goroutine records them in order.
func (r *recorder) fillSelf() {
	for i := range r.spans {
		r.spans[i].Self = r.spans[i].End - r.spans[i].Start
	}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			r.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// write stores the spans as JSON, with the self time summed per span
// name, creating the file's directory if needed.
func (r *recorder) write(path, workload string, seed uint64) error {
	r.fillSelf()
	self := map[string]int64{}
	for _, s := range r.spans {
		self[s.Name] += s.Self
	}
	data, err := json.Marshal(struct {
		Workload   string           `json:"workload"`
		Seed       uint64           `json:"seed"`
		SelfByName map[string]int64 `json:"self_ns_by_name"`
		Spans      []span           `json:"spans"`
	}{workload, seed, self, r.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
