package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval. The spans of one cycle batch (offline) or
// one job (service) share an ID; Parent and ParentID name the span that
// caused this one. A phase the step loop enters once per simulated cycle
// is one span per batch, not per visit: Start and End bracket the batch
// and Busy is the time spent inside the phase.
type span struct {
	Name     string `json:"name"`
	ID       string `json:"id"`
	Parent   string `json:"parent,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Busy     int64  `json:"busy_ns,omitempty"`
	Count    uint64 `json:"count,omitempty"`
}

func (s span) dur() time.Duration {
	if s.Busy > 0 {
		return time.Duration(s.Busy)
	}
	return time.Duration(s.End - s.Start)
}

// isolatedID tags the spans of direct calls into one package made beside
// the run (decode, key, append, ...). They are costs per call, not part
// of any job's wall time, so the ledger's coverage skips them.
const isolatedID = "isolated"

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs pay nothing for it.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(name, id, parent, parentID string, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{
		Name: name, ID: id, Parent: parent, ParentID: parentID,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
}

// addBusy records an aggregated phase span: busy time and visit count
// inside [start, end].
func (r *recorder) addBusy(name, id, parent string, start, end time.Time, busy time.Duration, count uint64) {
	if r == nil || count == 0 {
		return
	}
	r.spans = append(r.spans, span{
		Name: name, ID: id, Parent: parent, ParentID: id,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
		Busy: int64(busy), Count: count,
	})
}

type spanKey struct{ name, id string }

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[spanKey]time.Duration)
	for _, s := range spans {
		if s.Parent != "" {
			children[spanKey{s.Parent, s.ParentID}] += s.dur()
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += max(s.dur()-children[spanKey{s.Name, s.ID}], 0)
	}
	return self
}

// coverage is the share of the root spans' wall time that the leaf spans
// account for: what is left is time inside the benchmark's own loops or
// between layers that no span names.
func coverage(spans []span) float64 {
	parents := make(map[spanKey]bool)
	for _, s := range spans {
		if s.Parent != "" {
			parents[spanKey{s.Parent, s.ParentID}] = true
		}
	}
	var root, leaf time.Duration
	for _, s := range spans {
		if s.ID == isolatedID {
			continue
		}
		if s.Parent == "" {
			root += s.dur()
		}
		if s.Parent != "" && !parents[spanKey{s.Name, s.ID}] {
			leaf += s.dur()
		}
	}
	return ratio(float64(leaf), float64(root))
}

// writeSpans writes the spans and their per-name self times as JSON.
func writeSpans(path string, spans []span) error {
	self := make(map[string]float64)
	for name, d := range selfTimes(spans) {
		self[name] = ms(d)
	}
	data, err := json.Marshal(struct {
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{self, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
