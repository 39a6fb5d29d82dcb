package hmcsim_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/server"
	"hmcsim/internal/server/api"
	"hmcsim/internal/workload"
)

// startServe launches a built hmcsim-serve with args and returns the
// process and its base URL (parsed from the "listening on" line).
func startServe(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		t.Fatalf("no listen line from hmcsim-serve: %v", err)
	}
	line = strings.TrimSpace(line)
	addr := strings.TrimPrefix(line, "listening on ")
	if addr == line {
		cmd.Process.Kill()
		t.Fatalf("unexpected first line %q", line)
	}
	return cmd, "http://" + addr
}

// TestCrashRecovery is the end-to-end crash-safety acceptance test
// (DESIGN.md §12): hmcsim-serve is SIGKILLed mid-job — no drain, no
// final checkpoint, the hard way — restarted over the same data
// directory, and must resume the job from its last periodic checkpoint
// and finish it with result and state digests bit-identical to an
// uninterrupted run. The job must come back exactly once: recovered, not
// duplicated, not lost.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	spec := api.SubmitRequest{
		Name:     "crash-e2e",
		Config:   core.Table1Configs()[0],
		Workload: workload.TableISpec(1),
		Requests: 1 << 20, // ~1s wall: long enough to kill mid-run
	}
	ref, err := server.Execute(context.Background(), spec)
	if err != nil {
		t.Fatalf("uninterrupted reference run: %v", err)
	}

	serve := buildTool(t, "./cmd/hmcsim-serve")
	dataDir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0", "-workers", "1",
		"-data", dataDir, "-checkpoint-cycles", "256",
	}
	cmd, base := startServe(t, serve, args...)
	defer cmd.Process.Kill()

	body, _ := json.Marshal(spec)
	rsp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rsp.Body)
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", rsp.StatusCode, data)
	}
	var st api.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}

	// Wait for a persisted checkpoint, then kill without ceremony.
	ckPath := filepath.Join(dataDir, "checkpoints", st.ID+".ckpt")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint at %s after 30s", ckPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart over the same store; the journal replays and the job
	// resumes from the checkpoint.
	cmd2, base2 := startServe(t, serve, args...)
	defer cmd2.Process.Kill()
	deadline = time.Now().Add(120 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal 120s after restart", st.ID)
		}
		rsp, err := http.Get(base2 + "/v1/jobs/" + st.ID)
		if err != nil {
			time.Sleep(50 * time.Millisecond) // still coming up
			continue
		}
		data, _ = io.ReadAll(rsp.Body)
		rsp.Body.Close()
		if rsp.StatusCode != http.StatusOK {
			t.Fatalf("poll after restart: HTTP %d: %s", rsp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != api.StateDone {
		t.Fatalf("recovered job finished %s (%s), want done", st.State, st.Error)
	}
	if st.Attempt < 2 {
		t.Errorf("attempt = %d, want >= 2 (the crash burned attempt 1)", st.Attempt)
	}
	if st.Result.ResultDigest != ref.ResultDigest {
		t.Errorf("resumed result digest %s != uninterrupted %s",
			st.Result.ResultDigest, ref.ResultDigest)
	}
	if st.Result.StateDigest != ref.StateDigest {
		t.Errorf("resumed state digest %s != uninterrupted %s",
			st.Result.StateDigest, ref.StateDigest)
	}
	if st.Result.Cycles != ref.Cycles {
		t.Errorf("resumed cycles %d != uninterrupted %d", st.Result.Cycles, ref.Cycles)
	}

	// Exactly one job in the listing: recovered, never duplicated.
	rsp, err = http.Get(base2 + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(rsp.Body)
	rsp.Body.Close()
	var list []api.JobStatus
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("job list after recovery: %+v, want exactly %s", list, st.ID)
	}
}
