package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/server/api"
)

// countingRecorder counts the writes a response body arrives in.
type countingRecorder struct {
	*httptest.ResponseRecorder
	writes int
}

func (r *countingRecorder) Write(p []byte) (int, error) {
	r.writes++
	return r.ResponseRecorder.Write(p)
}

// failingWriter accepts headers and fails every body write.
type failingWriter struct{ h http.Header }

func (w failingWriter) Header() http.Header       { return w.h }
func (w failingWriter) WriteHeader(int)           {}
func (w failingWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestWriteJSONMatchesMarshalIndent holds the pooled encoder to the bytes
// of json.MarshalIndent plus a newline, in one write, for every payload
// shape the API answers with, from 8 goroutines at once and after a
// response whose write failed.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	spec := testSpec("done", core.Table1Configs()[0], 256)
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	done := Status{
		ID: "job-000001", Name: "done", State: api.StateDone, Submitted: now,
		Started: &now, Finished: &now, Spec: spec, Attempt: 1, Result: &res,
	}
	failed := Status{
		ID: "job-000002", State: api.StateFailed, Error: "server: <run> & \"failed\"",
		Submitted: now, Finished: &now, Spec: spec, Attempt: 3,
	}
	values := []any{
		done,
		[]Status{done, failed},
		api.Error{Code: api.CodeQueueFull, Message: ErrQueueFull.Error()},
		failed,
	}
	want := make([][]byte, len(values))
	for i, v := range values {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append(b, '\n')
	}

	check := func(i int) error {
		rec := &countingRecorder{ResponseRecorder: httptest.NewRecorder()}
		writeJSON(rec, http.StatusOK, values[i])
		if got := rec.Body.Bytes(); !bytes.Equal(got, want[i]) {
			return errors.New("body differs from MarshalIndent:\n" + string(got))
		}
		if rec.writes != 1 {
			return errors.New("body not written in one Write")
		}
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				i := (g + round) % len(values)
				if round%5 == 0 {
					writeJSON(failingWriter{h: http.Header{}}, http.StatusOK, values[i])
				}
				if err := check(i); err != nil {
					t.Errorf("goroutine %d, value %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
