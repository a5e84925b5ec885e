package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer: the
// benchmark wraps the call, the program under test is not instrumented.
// Spans of one operation share Op; Parent is the ID of the span that caused
// this one (0 for an operation's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	// Node is the automaton the call ran at (0 when the call belongs to no
	// node), Phase the quorum round trip of the operation it belongs to.
	Node  int `json:"node,omitempty"`
	Phase int `json:"phase,omitempty"`
	// OffPath marks work the operation's response did not wait for (replies
	// delivered after the quorum completed).
	OffPath bool `json:"off_path,omitempty"`
	// Replay marks a call repeated next to the step that makes it internally
	// (erasure coding inside a client step), so its time can be told apart.
	Replay  bool  `json:"replay,omitempty"`
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (r *recorder) begin(s span) int {
	s.ID = len(r.spans) + 1
	s.StartNs = int64(time.Since(r.epoch))
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].EndNs = int64(time.Since(r.epoch)) }

// write stores the spans as JSON under dir.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(r.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Overlapping children are counted once
// and children are clipped to the parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := k.StartNs, k.EndNs
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}
