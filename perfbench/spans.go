package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mp5/internal/dataplane"
)

// benchSpan is one span the benchmark records around a call into a layer,
// or one sampled packet's send→completion interval (name "pkt", with the
// packet id the engine's own span carries). Times are unix nanoseconds.
type benchSpan struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Round  int    `json:"round,omitempty"`
	Pkt    *int64 `json:"pkt,omitempty"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// engineSpan is a copy of one span the engine's tracer collected.
type engineSpan struct {
	Type    string               `json:"type"`
	Round   int                  `json:"round"`
	Pkt     int64                `json:"pkt"`
	Start   int64                `json:"start_unix_ns"`
	TotalNs int64                `json:"total_ns"`
	Stages  []dataplane.StageRec `json:"stages"`
}

// spanLog keeps every span in memory until the run ends. It is used from
// the benchmark's own goroutine only; engine spans arrive through
// stageTally and are appended after the tracer closed.
type spanLog struct {
	next   int64
	spans  []benchSpan
	engine []engineSpan
}

// unixNs converts a run-clock stamp to unix nanoseconds.
func unixNs(t int64) int64 { return epoch.UnixNano() + t }

// begin opens a span and returns its id; end closes it. A nil log records
// nothing.
func (l *spanLog) begin(name string, parent int64, round int) int64 {
	if l == nil {
		return 0
	}
	l.next++
	l.spans = append(l.spans, benchSpan{Name: name, ID: l.next, Parent: parent, Round: round, Start: unixNs(clock())})
	return l.next
}

func (l *spanLog) end(id int64) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = unixNs(clock())
}

// interval records a finished span from run-clock stamps.
func (l *spanLog) interval(name string, parent int64, round int, pkt *int64, t0, t1 int64) {
	if l == nil {
		return
	}
	l.next++
	l.spans = append(l.spans, benchSpan{Name: name, ID: l.next, Parent: parent, Round: round, Pkt: pkt,
		Start: unixNs(t0), End: unixNs(t1)})
}

func (l *spanLog) count() int { return len(l.spans) + len(l.engine) }

// write stores every span as one JSON object per line and returns the path.
func (l *spanLog) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	for i := range l.engine {
		if err := enc.Encode(&l.engine[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// stageTally sums the engine tracer's sampled spans per stage. Its Sink
// runs on the tracer's collector goroutine; Close joins that goroutine, so
// the tally is read only after the tracer closed.
type stageTally struct {
	round int
	spans int64
	ns    map[string]int64
	keep  []engineSpan
}

func newTracer(t *stageTally) *dataplane.Tracer {
	return dataplane.NewTracer(dataplane.TracerConfig{
		SampleEvery: sampleEvery,
		Sink: func(sp *dataplane.Span) {
			per, _ := sp.StageTotals()
			for st, ns := range per {
				if ns != 0 {
					t.ns[dataplane.TraceStage(st).String()] += ns
				}
			}
			t.spans++
			t.keep = append(t.keep, engineSpan{Type: sp.Type, Round: t.round, Pkt: sp.ID,
				Start: sp.StartNs, TotalNs: sp.TotalNs, Stages: append([]dataplane.StageRec(nil), sp.Stages...)})
		},
	})
}

// mean returns the mean nanoseconds per sampled packet spent in stage.
func (t *stageTally) mean(stage string) float64 {
	if t.spans == 0 {
		return 0
	}
	return float64(t.ns[stage]) / float64(t.spans)
}
