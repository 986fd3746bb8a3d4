package server

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"simdtree/internal/metrics"
)

// addJob stores j in s under the id s mints.
func addJob(s *JobStore[*job], j *job) {
	s.Add(j, &j.id)
}

// ids lists the ids of jobs in order.
func ids(jobs []*job) []string {
	var out []string
	for _, j := range jobs {
		out = append(out, j.id)
	}
	return out
}

// TestJobStoreEvictsOldestTerminalOnly fills the history with a mix of
// running and terminal jobs and checks that one more submission evicts
// exactly the oldest terminal job, keeps everything else in submission
// order, and never probes a job younger than the evicted one — the younger
// jobs' mutexes are held for the duration of the add, so a probe would
// deadlock rather than pass.
func TestJobStoreEvictsOldestTerminalOnly(t *testing.T) {
	const history = 8
	s := NewJobStore[*job]("j", history)
	status := []Status{StatusRunning, StatusQueued, StatusDone, StatusRunning, StatusFailed, StatusDone, StatusQueued, StatusDone}
	var jobs []*job
	for _, st := range status {
		j := &job{status: st}
		jobs = append(jobs, j)
		addJob(s, j)
	}
	for _, j := range jobs[3:] {
		j.mu.Lock()
	}
	done := make(chan struct{})
	go func() {
		addJob(s, &job{status: StatusQueued})
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

	want := []string{"j1", "j2", "j4", "j5", "j6", "j7", "j8", "j9"}
	if got := ids(s.All()); !slices.Equal(got, want) {
		t.Errorf("history after eviction %v, want %v", got, want)
	}
	if _, ok := s.Get("j3"); ok {
		t.Error("oldest terminal job j3 still reachable by id")
	}

	// With nothing terminal left to evict the store grows past the cap
	// rather than dropping live jobs, and catches up once jobs finish.
	live := NewJobStore[*job]("j", 2)
	a, b, c := &job{status: StatusRunning}, &job{status: StatusRunning}, &job{status: StatusRunning}
	addJob(live, a)
	addJob(live, b)
	if over := live.Add(c, &c.id); over != 1 {
		t.Errorf("a third live job leaves the store %d past its history, want 1", over)
	}
	if n := len(live.All()); n != 3 {
		t.Fatalf("store holds %d live jobs, want all 3", n)
	}
	a.status, b.status = StatusDone, StatusDone
	addJob(live, &job{status: StatusQueued})
	if got, want := ids(live.All()), []string{"j3", "j4"}; !slices.Equal(got, want) {
		t.Errorf("history after catch-up %v, want %v", got, want)
	}
}

// TestJobStoreSteadyState runs a store through ten histories' worth of
// terminal submissions behind one running job: the running job stays at
// the front, the newest history-1 terminal jobs stay behind it in
// submission order, every evicted id is gone, and the queue's backing
// slice stays within 2·history+1 slots.
func TestJobStoreSteadyState(t *testing.T) {
	for _, history := range []int{1, 2, 7, 64, 100} {
		t.Run(fmt.Sprintf("history=%d", history), func(t *testing.T) {
			s := NewJobStore[*job]("j", history)
			addJob(s, &job{status: StatusRunning}) // j1
			const rounds = 10
			n := rounds * history
			for i := 0; i < n; i++ {
				addJob(s, &job{status: StatusDone}) // j2 ... j(n+1)
				if c := cap(s.order); c > 2*history+1 {
					t.Fatalf("after %d adds the queue holds %d slots, want at most %d", i+1, c, 2*history+1)
				}
			}
			want := []string{"j1"}
			for k := n - history + 3; k <= n+1; k++ {
				want = append(want, fmt.Sprintf("j%d", k))
			}
			if got := ids(s.All()); !slices.Equal(got, want) {
				t.Fatalf("store holds %v, want %v", got, want)
			}
			for _, id := range want {
				if j, ok := s.Get(id); !ok || j.id != id {
					t.Errorf("%s not reachable by id", id)
				}
			}
			for k := 2; k < n-history+3; k++ {
				if _, ok := s.Get(fmt.Sprintf("j%d", k)); ok {
					t.Fatalf("evicted j%d still reachable by id", k)
				}
			}
		})
	}
}

// TestJobStoreConcurrentAdds stores jobs from several goroutines at once,
// as concurrent cache-hit submissions do: the history must list them in id
// order, j1 first, and every id must find its job.
func TestJobStoreConcurrentAdds(t *testing.T) {
	const goroutines, each = 8, 100
	s, err := New(Config{Workers: 1, JobHistory: goroutines * each})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	})
	spec := JobSpec{Domain: "synthetic", Scheme: "GP-DK", P: 8, Synthetic: &SyntheticSpec{W: 100, Seed: 1}}
	s.cache.put("k", cachedResult{Stats: metrics.Stats{P: 8, W: 1}})
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				if _, rf := s.SubmitCanonical(context.Background(), spec, "k", DefaultTenant, 1); rf != nil {
					t.Errorf("submission refused: %s", rf.Message)
				}
			}
		}()
	}
	wg.Wait()
	jobs := s.store.All()
	if len(jobs) != goroutines*each {
		t.Fatalf("history holds %d jobs, want %d", len(jobs), goroutines*each)
	}
	for i, j := range jobs {
		if want := "j" + strconv.Itoa(i+1); j.ID() != want {
			t.Fatalf("history slot %d holds %s, want %s", i, j.ID(), want)
		}
		if got, ok := s.store.Get(j.ID()); !ok || got != j {
			t.Fatalf("%s does not find its job", j.ID())
		}
	}
}

// The operations of a storeScript.
const (
	opAdd = iota
	opFinish
	opGet
	opAll
)

// The kinds of id an opGet looks up.
const (
	idStored    = iota // any stored job's
	idEvicted          // a job the store evicted
	idShifted          // a live job an eviction moved off its tail slot
	idMalformed        // a spelling no job is stored under
)

type storeOp struct {
	kind  int
	live  bool // opAdd: a queued job, not a done one
	class int  // opGet: the kind of id
	pick  int  // opFinish and opGet: which job or id of its kind
}

// storeScript is a generated run of a job store: its history and the
// operations applied to it in turn.
type storeScript struct {
	history int
	ops     []storeOp
}

func (storeScript) Generate(r *rand.Rand, size int) reflect.Value {
	g := storeScript{history: 1 + r.Intn(6)}
	for range r.Intn(4*size + 1) {
		op := storeOp{pick: r.Intn(1 << 10)}
		switch k := r.Intn(20); {
		case k < 8:
			op.kind, op.live = opAdd, r.Intn(3) == 0
		case k < 11:
			op.kind = opFinish
		case k < 19:
			op.kind, op.class = opGet, r.Intn(4)
		default:
			op.kind = opAll
		}
		g.ops = append(g.ops, op)
	}
	return reflect.ValueOf(g)
}

// storeModel is the referee's job store: a slice in submission order, the
// same eviction rule, and lookups by linear scan.
type storeModel struct {
	history int
	minted  int
	ids     []string // of the stored jobs, in step with jobs
	jobs    []*job
}

func (m *storeModel) add(j *job) (id string, over int) {
	m.minted++
	id = "j" + strconv.Itoa(m.minted)
	m.ids, m.jobs = append(m.ids, id), append(m.jobs, j)
	over = len(m.jobs) - m.history
	for i := 0; over > 0 && i < len(m.jobs); {
		if !m.jobs[i].Terminal() {
			i++
			continue
		}
		m.ids, m.jobs = slices.Delete(m.ids, i, i+1), slices.Delete(m.jobs, i, i+1)
		over--
	}
	return id, max(over, 0)
}

func (m *storeModel) get(id string) (*job, bool) {
	if i := slices.Index(m.ids, id); i >= 0 {
		return m.jobs[i], true
	}
	return nil, false
}

// pickID returns an id of the given kind, "" when there is none.
func (m *storeModel) pickID(class, pick int) string {
	var from []string
	switch class {
	case idStored:
		from = m.ids
	case idEvicted:
		for n := 1; n <= m.minted; n++ {
			if id := "j" + strconv.Itoa(n); !slices.Contains(m.ids, id) {
				from = append(from, id)
			}
		}
	case idShifted:
		for i, j := range m.jobs {
			n, _ := strconv.Atoi(m.ids[i][1:])
			if !j.Terminal() && i != len(m.jobs)-1-(m.minted-n) {
				from = append(from, m.ids[i])
			}
		}
	case idMalformed:
		n := strconv.Itoa(1 + pick%max(m.minted, 1))
		from = []string{"j0" + n, "j+" + n, "J" + n, "j" + n + "x", " j" + n, "j-" + n, "f" + n, n,
			"j", "", "j0", "j-1", "j99999999999999999999", "j" + strconv.Itoa(m.minted+1)}
	}
	if len(from) == 0 {
		return ""
	}
	return from[pick%len(from)]
}

// storeReferee runs count seeded scripts against a store and the model and
// returns the first difference: an add's id or overshoot, a lookup, or the
// listing.  add and get, when non-nil, stand in for the store's own.
func storeReferee(count int, add func(*JobStore[*job], *job) int, get func(*JobStore[*job], string) (*job, bool)) error {
	if add == nil {
		add = func(s *JobStore[*job], j *job) int { return s.Add(j, &j.id) }
	}
	if get == nil {
		get = (*JobStore[*job]).Get
	}
	var failure error
	prop := func(g storeScript) bool {
		s, m := NewJobStore[*job]("j", g.history), &storeModel{history: g.history}
		fail := func(step int, format string, args ...any) bool {
			failure = fmt.Errorf("history %d, step %d: %s", g.history, step, fmt.Sprintf(format, args...))
			return false
		}
		for step, op := range append(g.ops, storeOp{kind: opAll}) {
			switch op.kind {
			case opAdd:
				st := StatusDone
				if op.live {
					st = StatusQueued
				}
				j := &job{status: st}
				over := add(s, j)
				if id, want := m.add(j); j.id != id || over != want {
					return fail(step, "add named %q and left the store %d over, want %q and %d", j.id, over, id, want)
				}
			case opFinish:
				var live []*job
				for _, j := range m.jobs {
					if !j.Terminal() {
						live = append(live, j)
					}
				}
				if len(live) > 0 {
					live[op.pick%len(live)].status = StatusDone
				}
			case opGet:
				id := m.pickID(op.class, op.pick)
				got, ok := get(s, id)
				if want, wantOK := m.get(id); got != want || ok != wantOK {
					return fail(step, "Get(%q) = %p, %v, want %p, %v", id, got, ok, want, wantOK)
				}
			case opAll:
				if got := s.All(); !slices.Equal(got, m.jobs) {
					return fail(step, "All() lists %v, want %v", ids(got), m.ids)
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(56))}); err != nil {
		return failure
	}
	return nil
}

// TestJobStoreReferee: for random scripts of adds of live and terminal
// jobs, finishes, lookups of stored, evicted, shifted and malformed ids,
// and listings, the store answers as the model does.
func TestJobStoreReferee(t *testing.T) {
	count := 400
	if testing.Short() {
		count = 100
	}
	if err := storeReferee(count, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkJobStoreAdd is one submission into a full history of terminal
// jobs: a fresh job, as every caller adds, the id the store mints for it,
// its add and the eviction it causes.  On a 2-CPU host, over 10 runs,
// history=64 read 219–266 ns/op and history=65536 346–483, within 2× in
// every run: the victim's cold cache line and the collector's larger heap,
// not the store, which does the same O(1) work at every size.
func BenchmarkJobStoreAdd(b *testing.B) {
	for _, history := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			b.ReportAllocs()
			s := NewJobStore[*job]("j", history)
			for range history {
				addJob(s, &job{status: StatusDone})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addJob(s, &job{status: StatusDone})
			}
		})
	}
}

// BenchmarkJobStoreGet looks an id up in a full history of 4 096 jobs:
// the newest job's, found at its tail slot, and a running job's that
// evictions shifted off it, found by binary search.
func BenchmarkJobStoreGet(b *testing.B) {
	const history = 4096
	s := NewJobStore[*job]("j", history)
	running := &job{status: StatusRunning}
	addJob(s, running)
	newest := &job{status: StatusDone}
	for range 2 * history {
		newest = &job{status: StatusDone}
		addJob(s, newest)
	}
	for _, row := range []struct {
		name string
		j    *job
	}{{"tail", newest}, {"shifted-live", running}} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if j, ok := s.Get(row.j.id); !ok || j != row.j {
					b.Fatalf("%s not found", row.j.id)
				}
			}
		})
	}
}
