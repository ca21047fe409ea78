package dist

import (
	"fmt"
	"sync"
	"testing"

	"icfp/internal/exp"
)

// queue builds a dispatcher whose ready queue holds the given workload
// groups in order, sizes[i] jobs in group i.
func queue(parallel, active int, sizes ...int) *dispatcher {
	d := &dispatcher{opts: &Options{Parallel: parallel}, active: active, met: newDistMetrics(nil)}
	d.cond = sync.NewCond(&d.mu)
	for g, n := range sizes {
		for i := range n {
			d.ready = append(d.ready, &pjob{group: fmt.Sprintf("w%d", g), key: keyFor(g, i)})
		}
	}
	return d
}

// keyFor is a synthetic key, unique per (group, job): Workload names
// the job, not its trace.
func keyFor(g, i int) exp.Key {
	return exp.Key{Machine: fmt.Sprintf("m%d", i), Workload: fmt.Sprintf("w%d/%d", g, i)}
}

// groups names each batch job's group, in order.
func groups(batch []*pjob) []string {
	out := make([]string, len(batch))
	for i, pj := range batch {
		out[i] = pj.group
	}
	return out
}

func TestBatchNeverSplitsAGroupThatFitsTheShare(t *testing.T) {
	// Two workers, 12 jobs: the share is 6, so a 5-job group ships whole
	// even though the pool is only 2 wide, and the batch stops there.
	d := queue(2, 2, 5, 4, 3)
	if got := groups(d.takeBatchLocked()); fmt.Sprint(got) != "[w0 w0 w0 w0 w0]" {
		t.Errorf("first batch = %v, want all of w0 and nothing more", got)
	}
	if got := groups(d.takeBatchLocked()); fmt.Sprint(got) != "[w1 w1 w1 w1]" {
		t.Errorf("second batch = %v, want all of w1", got)
	}
}

func TestBatchToppedUpToFloorWithWholeGroups(t *testing.T) {
	// A 5-wide pool over 2-job groups: whole groups are added until the
	// pool is full, so the batch ends on a group boundary past the floor.
	d := queue(5, 1, 2, 2, 2, 2)
	if got := groups(d.takeBatchLocked()); fmt.Sprint(got) != "[w0 w0 w1 w1 w2 w2]" {
		t.Errorf("batch = %v, want three whole groups", got)
	}
	if got := groups(d.takeBatchLocked()); fmt.Sprint(got) != "[w3 w3]" {
		t.Errorf("tail batch = %v, want the last group", got)
	}
}

// TestBatchFloorKeepsPoolsBusy pins the floor: with a wide worker pool,
// a batch never starves it below one job per pool slot while jobs
// remain, however many workers compete.
func TestBatchFloorKeepsPoolsBusy(t *testing.T) {
	d := queue(8, 4, 32)
	if got := len(d.takeBatchLocked()); got < 8 {
		t.Errorf("batch of %d jobs starves an 8-wide pool", got)
	}
	// Parallel 0 asks for each worker's GOMAXPROCS, which the coordinator
	// cannot see: the batch fills defaultPoolWidth with whole groups.
	d = queue(0, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4)
	if got := len(d.takeBatchLocked()); got != defaultPoolWidth {
		t.Errorf("GOMAXPROCS-pool batch = %d jobs, want %d", got, defaultPoolWidth)
	}
}

func TestBatchSplitsAWorkloadPastTheShare(t *testing.T) {
	// One 8-job workload over 4 active workers with single-slot pools:
	// every worker must get a piece, so no batch exceeds ceil(8/4) = 2.
	d := queue(1, 4, 8)
	total := 0
	for len(d.ready) > 0 {
		n := len(d.takeBatchLocked())
		if n < 1 || n > 2 {
			t.Fatalf("batch of %d jobs, want 1 or 2", n)
		}
		total += n
	}
	if total != 8 {
		t.Errorf("batches carried %d jobs, want 8", total)
	}
}

func TestRequeuedRemainderDispatchedAgain(t *testing.T) {
	d := queue(1, 1, 3, 2)
	first := d.takeBatchLocked()
	d.inflight += len(first)
	// The worker streamed one result, then left: the rest goes back.
	d.requeue(first[1:], false, "w", nil)
	seen := map[string]int{}
	for len(d.ready) > 0 {
		for _, pj := range d.takeBatchLocked() {
			seen[pj.key.Workload]++
		}
	}
	for _, pj := range first[1:] {
		if seen[pj.key.Workload] != 1 {
			t.Errorf("requeued job %s dispatched %d times, want once", pj.key.Workload, seen[pj.key.Workload])
		}
	}
	if len(seen) != 4 {
		t.Errorf("dispatched %d distinct jobs after the requeue, want 4 (2 requeued + w1's 2)", len(seen))
	}
}
