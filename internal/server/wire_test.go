package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"simdtree/internal/metrics"
)

// TestEventLogTrimsAndWakes covers the one bounded log every stream now
// reads (a node's per-job log, a stolen job's included): past the cap it
// trims from the front, a
// reader older than the retained base restarts from the oldest retained
// event, sequence numbers stay gap-free, and the wake channel closes on
// the next Append.
func TestEventLogTrimsAndWakes(t *testing.T) {
	const extra = 100
	l := new(EventLog)
	for i := 0; i < eventLogCap+extra; i++ {
		l.Append(JobEvent{Type: EventProgress, Cycle: i})
	}

	for _, after := range []int64{0, extra / 2, extra} {
		evs, _ := l.Since(after)
		if len(evs) != eventLogCap || evs[0].Seq != extra+1 {
			t.Fatalf("Since(%d) = %d events from seq %d, want the %d retained from seq %d",
				after, len(evs), evs[0].Seq, eventLogCap, extra+1)
		}
		for i, ev := range evs {
			if want := int64(extra + 1 + i); ev.Seq != want || ev.Cycle != int(want)-1 {
				t.Fatalf("Since(%d)[%d] = seq %d cycle %d, want seq %d cycle %d", after, i, ev.Seq, ev.Cycle, want, want-1)
			}
		}
	}
	if evs, _ := l.Since(eventLogCap + extra - 2); len(evs) != 2 || evs[0].Seq != eventLogCap+extra-1 {
		t.Fatalf("Since(last-2) = %+v, want the last two events", evs)
	}

	evs, wake := l.Since(eventLogCap + extra)
	if len(evs) != 0 {
		t.Fatalf("Since(last) = %d events, want none", len(evs))
	}
	select {
	case <-wake:
		t.Fatal("wake channel closed with no Append")
	default:
	}
	l.Append(JobEvent{Type: EventStatus, Status: StatusDone, Terminal: true})
	select {
	case <-wake:
	default:
		t.Fatal("wake channel still open after Append")
	}
	if evs, _ := l.Since(eventLogCap + extra); len(evs) != 1 || evs[0].Seq != eventLogCap+extra+1 || !evs[0].Terminal {
		t.Fatalf("after Append, Since(last) = %+v, want the one new terminal event", evs)
	}
}

// TestStreamEventsHeartbeatAndClose drives StreamEvents over an EventLog
// the way a node's events route does: buffered
// events arrive framed, an idle stream carries comment heartbeats, and
// the stream ends by itself after the terminal event.
func TestStreamEventsHeartbeatAndClose(t *testing.T) {
	l := new(EventLog)
	l.Append(JobEvent{Type: EventStatus, Status: StatusRunning})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		StreamEvents(r.Context(), w, 0, l.Since, 10*time.Millisecond)
	}))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		if line == ": heartbeat" {
			// Idle and heartbeating: finish the job, once.
			if evs, _ := l.Since(1); len(evs) == 0 {
				l.Append(JobEvent{Type: EventStatus, Status: StatusDone, Terminal: true})
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream broke instead of ending: %v", err)
	}
	got := strings.Join(lines, "\n")
	first := strings.Index(got, "id: 1\nevent: status\ndata: {\"seq\":1,\"type\":\"status\",\"status\":\"running\"}\n")
	beat := strings.Index(got, ": heartbeat\n")
	last := strings.Index(got, "id: 2\nevent: status\ndata: {\"seq\":2,\"type\":\"status\",\"status\":\"done\",\"terminal\":true}")
	if first != 0 || beat < first || last < beat {
		t.Errorf("want the buffered event, then a heartbeat while idle, then the terminal event; got (at %d, %d, %d):\n%s", first, beat, last, got)
	}
	if !strings.HasSuffix(got, "\"terminal\":true}\n") {
		t.Errorf("stream went on after the terminal event:\n%s", got)
	}
}

// cacheHitDoc is the document a cache hit on simdmark's service spec
// answers with: terminal, every timestamp set, every stats field non-zero.
func cacheHitDoc(t testing.TB) jobResponse {
	spec, err := Canonicalize(JobSpec{Domain: "synthetic", Scheme: "GP-S0.90", P: 64,
		Synthetic: &SyntheticSpec{W: 30000, Seed: 7}}, map[string]bool{"synthetic": true})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 10, 15, 12, 0, 0, 123456789, time.UTC)
	return renderJob(jobView{
		ID: "j4242", Spec: spec, Key: CacheKey(spec), Tenant: "t1", Status: StatusDone, CacheHit: true,
		Stats: metrics.Stats{P: 64, W: 30000, Goals: 3, Cycles: 521, LBPhases: 41, Transfers: 907,
			InitCycles: 12, InitPhases: 5, Tcalc: 30000 * time.Microsecond, Tidle: 2113 * time.Microsecond,
			Tlb: 1217 * time.Microsecond, Tpar: 521 * time.Microsecond, PeakStack: 31, MaxTransfer: 12},
		Submitted: at, Started: at, Finished: at,
	})
}

// FuzzIndentedJSON holds marshalDoc to its definition: on any input, the
// bytes of json.MarshalIndent(v, "", "  ") plus a newline, and the same
// failures.  Inputs reach both as a json.RawMessage, which json.Marshal
// compacts first, as it compacts an inlined job document.
func FuzzIndentedJSON(f *testing.F) {
	doc, err := json.Marshal(cacheHitDoc(f))
	if err != nil {
		f.Fatal(err)
	}
	indented, err := json.MarshalIndent(cacheHitDoc(f), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	deep := strings.Repeat(`{"a":[`, 100) + `"<>&"` + strings.Repeat(`]}`, 100)
	for _, seed := range []string{
		string(doc),
		// A :batch reply inlining a job document as the frontend does:
		// indented, with its trailing newline.
		`{"accepted":1,"rejected":1,"collapsed":0,"items":[{"index":0,"code":200,"id":"j4242","cache_hit":true,"job":` +
			string(indented) + "\n" + `},{"index":1,"code":429,"error":"tenant \"t1\" has 1 jobs outstanding (quota 1)","retry_after":1}]}`,
		`{"error":"a \"quoted\" word, a back\\slash, \\\\ two, and <tags> & more"}`,
		`["\\", "\\\"", "\"\\", "  ", "{[,:]}"]`,
		`{}`, `[]`, `{"a":{},"b":[],"c":[{}],"d":[[]]}`,
		deep, strings.Repeat("[", 300) + strings.Repeat("]", 300),
		`0`, `-1.5e-7`, `"x"`, `null`, `true`, ` [ 1 , { "k" : false } ] `,
		`{"a":}`, `["unterminated`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := json.MarshalIndent(json.RawMessage(data), "", "  ")
		got, err := marshalDoc(json.RawMessage(data))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("marshalDoc error %v, MarshalIndent error %v, on %q", err, wantErr, data)
		}
		if err == nil && !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("on %q\nmarshalDoc:\n%s\nMarshalIndent:\n%s", data, got, want)
		}
	})
}

var docSink []byte

// BenchmarkJobDocument renders one cache-hit job document through the
// API's writer and through json.MarshalIndent, the writer it replaced.
func BenchmarkJobDocument(b *testing.B) {
	doc := cacheHitDoc(b)
	for _, w := range []struct {
		name   string
		render func(any) ([]byte, error)
	}{
		{"marshalDoc", marshalDoc},
		{"MarshalIndent", func(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") }},
	} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := w.render(doc)
				if err != nil {
					b.Fatal(err)
				}
				docSink = out
			}
		})
	}
}

// TestEventLogFreezesAtTerminal pins what a job's finish leaves of its
// log: the reader waiting on the live log is woken, the terminal event is
// the last one a reader resuming from any sequence number is handed, no
// wake channel is handed out, an Append to the dropped run's log changes
// nothing, and a log of lifecycle events alone stores no event: the
// record rebuilds them all.
func TestEventLogFreezesAtTerminal(t *testing.T) {
	j := liveJob()
	l := &j.run.events
	l.Append(JobEvent{Type: EventStatus, Status: StatusQueued})
	l.Append(JobEvent{Type: EventStatus, Status: StatusRunning})
	_, wake := j.eventsSince(2)
	j.finish(StatusDone, metrics.Stats{}, nil, "", time.Now())
	select {
	case <-wake:
	default:
		t.Fatal("finish did not wake the reader")
	}
	l.Append(JobEvent{Type: EventStatus, Status: StatusQueued})
	evs, wake := j.eventsSince(0)
	if len(evs) != 3 || !evs[2].Terminal || evs[2].Seq != 3 {
		t.Fatalf("frozen log %+v, want queued, running, then the terminal event", evs)
	}
	if wake != nil {
		t.Error("a finished job still hands out a wake channel")
	}
	if evs, _ := j.eventsSince(3); len(evs) != 0 {
		t.Errorf("eventsSince(terminal) = %+v, want none", evs)
	}
	if f := j.events; f.kept != nil || f.marks != nil || !f.queued || !f.running {
		t.Errorf("a frozen log of lifecycle events alone stores kept %+v, marks %v, flags %v %v", f.kept, f.marks, f.queued, f.running)
	}
}
