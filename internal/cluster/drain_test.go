package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// drainBlock gates the test.drain-block program: when armed, the
// program reports entry and parks until released. Channels are
// per-arm, so tests can't trip over each other's gate state.
var drainBlock struct {
	mu      sync.Mutex
	entered chan struct{}
	release chan struct{}
}

func armDrainBlock(t *testing.T) (entered <-chan struct{}, release func()) {
	t.Helper()
	drainBlock.mu.Lock()
	defer drainBlock.mu.Unlock()
	if drainBlock.entered != nil {
		t.Fatal("drain gate already armed")
	}
	ent := make(chan struct{}, 8)
	rel := make(chan struct{})
	drainBlock.entered, drainBlock.release = ent, rel
	var once sync.Once
	releaseFn := func() { once.Do(func() { close(rel) }) }
	t.Cleanup(func() {
		releaseFn()
		drainBlock.mu.Lock()
		drainBlock.entered, drainBlock.release = nil, nil
		drainBlock.mu.Unlock()
	})
	return ent, releaseFn
}

func init() {
	RegisterProgram("test.drain-block", func(env *JobEnv) ([]byte, Report, error) {
		drainBlock.mu.Lock()
		ent, rel := drainBlock.entered, drainBlock.release
		drainBlock.mu.Unlock()
		if ent != nil {
			ent <- struct{}{}
			<-rel
		}
		return []byte(fmt.Sprintf("rank-%d-done", env.Rank)), Report{Tasks: 1}, nil
	})
}

// TestWorkerDrainIdle: draining a worker with nothing in flight
// disconnects it immediately and Wait reports a clean exit.
func TestWorkerDrainIdle(t *testing.T) {
	_, ws := startCluster(t, 1, 3*time.Second)
	if err := ws[0].Drain(time.Second); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	if err := ws[0].Wait(); err != nil {
		t.Fatalf("post-drain wait: %v", err)
	}
	// A second drain is a no-op.
	if err := ws[0].Drain(time.Second); err != nil {
		t.Fatalf("re-drain: %v", err)
	}
}

// TestWorkerDrainFinishesInflightJob: a drain issued while a job is
// running lets the job complete (the driver gets its result) before
// the worker disconnects.
func TestWorkerDrainFinishesInflightJob(t *testing.T) {
	d, ws := startCluster(t, 1, 3*time.Second)
	entered, release := armDrainBlock(t)

	type runOut struct {
		res *RunResult
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := d.Run("test.drain-block", nil, 10*time.Second)
		done <- runOut{res, err}
	}()
	<-entered // the job is now executing on the worker

	drained := make(chan error, 1)
	go func() { drained <- ws[0].Drain(10 * time.Second) }()
	// Drain must not finish while the job is still blocked.
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) with the job still running", err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("job failed under drain: %v", out.err)
	}
	if got := string(out.res.Result); got != "rank-0-done" {
		t.Fatalf("result %q", got)
	}
}

// TestWorkerDrainRefusesNewJobs: a draining worker answers new job
// assignments with an explicit refusal instead of silently dropping
// them, so the driver fails fast.
func TestWorkerDrainRefusesNewJobs(t *testing.T) {
	d, ws := startCluster(t, 1, 3*time.Second)
	entered, release := armDrainBlock(t)

	go func() {
		_, _ = d.Run("test.drain-block", nil, 10*time.Second)
	}()
	<-entered
	go ws[0].Drain(10 * time.Second)
	// Wait for the drain flag to be visible.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ws[0].amu.Lock()
		draining := ws[0].draining
		ws[0].amu.Unlock()
		if draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := d.Run("test.echo", nil, 5*time.Second); err == nil {
		t.Fatal("job submitted to a draining worker succeeded")
	}
	release()
}

// TestWorkerDrainTimeout: a job that outlives the drain deadline makes
// Drain report the overrun, and the worker still shuts down.
func TestWorkerDrainTimeout(t *testing.T) {
	d, ws := startCluster(t, 1, 3*time.Second)
	entered, release := armDrainBlock(t)
	go func() {
		_, _ = d.Run("test.drain-block", nil, 10*time.Second)
	}()
	<-entered
	if err := ws[0].Drain(50 * time.Millisecond); err == nil {
		t.Fatal("drain deadline overrun not reported")
	}
	release()
	if err := ws[0].Wait(); err != nil {
		t.Fatalf("worker not shut down after drain timeout: %v", err)
	}
}

// TestWorkerDrainRacingAssignment: a drain that races a job assignment
// never loses the job with the connection. The draining rank either
// runs the job, refuses it, or is left out of it; it is never counted
// lost, and the drain itself completes cleanly.
func TestWorkerDrainRacingAssignment(t *testing.T) {
	for i := 0; i < 30; i++ {
		d, ws := startCluster(t, 2, 3*time.Second)
		drained := make(chan error, 1)
		go func() { drained <- ws[1].Drain(5 * time.Second) }()
		res, err := d.Run("test.echo", []byte("x"), 5*time.Second)
		if err != nil {
			t.Fatalf("round %d: the surviving rank must still answer: %v", i, err)
		}
		if res.LostWorkers > 0 {
			t.Fatalf("round %d: draining worker counted lost (%d lost)", i, res.LostWorkers)
		}
		if err := <-drained; err != nil {
			t.Fatalf("round %d: drain: %v", i, err)
		}
	}
}
