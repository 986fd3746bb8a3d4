package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// counters are the expvar-style monotonic counters Server.Metrics serves
// at /metrics.  All fields are atomics; the struct is embedded in Server
// and never copied.
type counters struct {
	jobsQueued      atomic.Int64 // accepted into the queue
	jobsRunning     atomic.Int64 // currently executing, one busy worker each (gauge)
	jobsDone        atomic.Int64 // completed successfully
	jobsCancelled   atomic.Int64 // cancelled via DELETE or shutdown
	jobsTimeout     atomic.Int64 // hit their deadline
	jobsExhausted   atomic.Int64 // hit their cycle budget
	jobsFailed      atomic.Int64 // failed (bad run or panic)
	jobsRejected    atomic.Int64 // refused with 429 (queue full)
	quotaRejections atomic.Int64 // refused with 429 (tenant quota)
	sseStreams      atomic.Int64
	sseResumes      atomic.Int64
	panics          atomic.Int64 // domain panics isolated by a worker
	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64

	checkpointsWritten atomic.Int64 // spool files persisted (periodic + final)
	jobsResumed        atomic.Int64 // runs restored from a spooled checkpoint

	spillEvictions    atomic.Int64 // cold level windows evicted to the segment log
	spillFaults       atomic.Int64 // segments restored on demand
	spillBytesWritten atomic.Int64 // segment bytes written
	spillBytesRead    atomic.Int64 // segment bytes read back

	checkpointsExported atomic.Int64 // checkpoints served to a fleet coordinator
	jobsImported        atomic.Int64 // jobs accepted with a shipped checkpoint

	stealCompleted      atomic.Int64 // distributed runs that drove their job to its end
	stealFailed         atomic.Int64 // steals that lost a peer, at setup or mid-run
	stealDonations      atomic.Int64 // cross-node stack-segment frames shipped
	stealLocal          atomic.Int64 // matched transfers that stayed within one shard
	stealSessionsOpened atomic.Int64 // shard sessions accepted
	stealFramesAbsorbed atomic.Int64 // donation frames installed into local shards
	stealFramesSplit    atomic.Int64 // donation frames split off local shards

	runDurSumNS atomic.Int64 // total wall-clock of completed runs, feeds Retry-After
	runDurCount atomic.Int64 // number of completed runs
}

// latencyBuckets are the upper bounds of the wall-clock job-latency
// histogram, chosen to straddle both cache-adjacent small jobs and
// multi-minute full-scale simulations.
var latencyBuckets = []time.Duration{
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
	time.Minute,
	10 * time.Minute,
}

// histogram is a fixed-bucket latency histogram; counts[i] covers
// latencies <= latencyBuckets[i], the final slot is the overflow bucket.
type histogram struct {
	counts []atomic.Int64
	sumNS  atomic.Int64
	n      atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	i := sort.Search(len(latencyBuckets), func(i int) bool { return d <= latencyBuckets[i] })
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	h.n.Add(1)
}

// histogramJSON is the wire form of one histogram.
type histogramJSON struct {
	Count   int64            `json:"count"`
	MeanMS  float64          `json:"mean_ms"`
	Buckets map[string]int64 `json:"buckets"`
}

func (h *histogram) snapshot() histogramJSON {
	out := histogramJSON{Buckets: make(map[string]int64, len(latencyBuckets)+1)}
	for i := range latencyBuckets {
		out.Buckets["le_"+latencyBuckets[i].String()] = h.counts[i].Load()
	}
	out.Buckets["overflow"] = h.counts[len(latencyBuckets)].Load()
	out.Count = h.n.Load()
	if out.Count > 0 {
		out.MeanMS = float64(h.sumNS.Load()) / float64(out.Count) / 1e6
	}
	return out
}

// schemeLatencies tracks one histogram per scheme label.
type schemeLatencies struct {
	mu sync.Mutex
	m  map[string]*histogram
}

func newSchemeLatencies() *schemeLatencies {
	return &schemeLatencies{m: make(map[string]*histogram)}
}

func (s *schemeLatencies) observe(scheme string, d time.Duration) {
	s.mu.Lock()
	h, ok := s.m[scheme]
	if !ok {
		h = newHistogram()
		s.m[scheme] = h
	}
	s.mu.Unlock()
	h.observe(d)
}

func (s *schemeLatencies) snapshot() map[string]histogramJSON {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]histogramJSON, len(s.m))
	for k, h := range s.m {
		out[k] = h.snapshot()
	}
	return out
}
