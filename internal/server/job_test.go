package server

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// TestJobStoreEvictsOldestTerminalOnly fills the history with a mix of
// running and terminal jobs and checks that one more submission evicts
// exactly the oldest terminal job, keeps everything else in submission
// order, and never probes a job younger than the evicted one — the younger
// jobs' mutexes are held for the duration of the add, so a probe would
// deadlock rather than pass.
func TestJobStoreEvictsOldestTerminalOnly(t *testing.T) {
	const history = 8
	s := newJobStore[*job](history)
	status := []Status{StatusRunning, StatusQueued, StatusDone, StatusRunning, StatusFailed, StatusDone, StatusQueued, StatusDone}
	var jobs []*job
	for i, st := range status {
		j := &job{id: fmt.Sprintf("j%d", i), status: st}
		jobs = append(jobs, j)
		s.add(j)
	}
	for _, j := range jobs[3:] {
		j.mu.Lock()
	}
	done := make(chan struct{})
	go func() {
		s.add(&job{id: "new", status: StatusQueued})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("add probed a job past the one it evicted")
	}
	for _, j := range jobs[3:] {
		j.mu.Unlock()
	}

	var got []string
	for _, j := range s.all() {
		got = append(got, j.id)
	}
	want := []string{"j0", "j1", "j3", "j4", "j5", "j6", "j7", "new"}
	if !slices.Equal(got, want) {
		t.Errorf("history after eviction %v, want %v", got, want)
	}
	if _, ok := s.get("j2"); ok {
		t.Error("oldest terminal job j2 still reachable by id")
	}

	// With nothing terminal left to evict the store grows past the cap
	// rather than dropping live jobs, and catches up once jobs finish.
	live := newJobStore[*job](2)
	a, b, c := &job{id: "a", status: StatusRunning}, &job{id: "b", status: StatusRunning}, &job{id: "c", status: StatusRunning}
	live.add(a)
	live.add(b)
	live.add(c)
	if n := len(live.all()); n != 3 {
		t.Fatalf("store holds %d live jobs, want all 3", n)
	}
	a.status, b.status = StatusDone, StatusDone
	live.add(&job{id: "d", status: StatusQueued})
	got = got[:0]
	for _, j := range live.all() {
		got = append(got, j.id)
	}
	if want := []string{"c", "d"}; !slices.Equal(got, want) {
		t.Errorf("history after catch-up %v, want %v", got, want)
	}
}

// TestJobStoreSteadyState runs a store through ten histories' worth of
// terminal submissions behind one running job: the running job stays at
// the front, the newest history-1 terminal jobs stay behind it in
// submission order, the id index matches, and the queue's backing slice
// stays within 2·history+1 slots.
func TestJobStoreSteadyState(t *testing.T) {
	for _, history := range []int{1, 2, 7, 64, 100} {
		t.Run(fmt.Sprintf("history=%d", history), func(t *testing.T) {
			s := newJobStore[*job](history)
			running := &job{id: "running", status: StatusRunning}
			s.add(running)
			const rounds = 10
			n := rounds * history
			for i := 0; i < n; i++ {
				s.add(&job{id: fmt.Sprintf("j%d", i), status: StatusDone})
				if c := cap(s.order); c > 2*history+1 {
					t.Fatalf("after %d adds the queue holds %d slots, want at most %d", i+1, c, 2*history+1)
				}
			}
			want := []string{"running"}
			for i := n - history + 1; i < n; i++ {
				want = append(want, fmt.Sprintf("j%d", i))
			}
			var got []string
			for _, j := range s.all() {
				got = append(got, j.id)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("store holds %v, want %v", got, want)
			}
			if len(s.byID) != history {
				t.Errorf("byID holds %d jobs, want %d", len(s.byID), history)
			}
			for _, id := range want {
				if _, ok := s.get(id); !ok {
					t.Errorf("%s not reachable by id", id)
				}
			}
		})
	}
}

// BenchmarkJobStoreAdd is one submission into a full history of terminal
// jobs: an add and the eviction it causes.  Its cost must not grow with
// the history.
func BenchmarkJobStoreAdd(b *testing.B) {
	for _, history := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			b.ReportAllocs()
			// Twice the history of jobs, re-added round robin: a job comes
			// back long after it was evicted.
			jobs := make([]*job, 2*history)
			for i := range jobs {
				jobs[i] = &job{id: fmt.Sprintf("j%d", i), status: StatusDone}
			}
			s := newJobStore[*job](history)
			for _, j := range jobs {
				s.add(j)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.add(jobs[i%len(jobs)])
			}
		})
	}
}
