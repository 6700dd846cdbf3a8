package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sim"
)

// span is one benchmark-owned trace record. Host spans (workload,
// setup.*, run) are timed in host nanoseconds since the tracer started;
// op spans are timed in simulated nanoseconds and cover one client call
// including its retries.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Clock   string `json:"clock"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Op      string `json:"op,omitempty"`
	Key     string `json:"key,omitempty"`
	Client  int    `json:"client,omitempty"`
	Retries int    `json:"retries,omitempty"`
	Failed  bool   `json:"failed,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced reps pay one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a host-time span and returns its ID (0 when off).
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Clock: "host", Start: int64(time.Since(t.epoch))})
	return id
}

// end closes the host-time span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// op records one client call as a sim-time span under parent.
func (t *tracer) op(parent int64, client int, kind, key string, start, end sim.Time, retries int, failed bool) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Name: "op", Clock: "sim",
		Start: int64(start), End: int64(end),
		Op: kind, Key: key, Client: client, Retries: retries, Failed: failed,
	})
}

// write stores the spans as JSON lines and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
