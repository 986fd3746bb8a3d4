package server

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestEventLogTrimsAndWakes covers the one bounded log every stream now
// reads (a node's per-job log and the coordinator's per-distributed-run
// log are both this type): past the cap it trims from the front, a
// reader older than the retained base restarts from the oldest retained
// event, sequence numbers stay gap-free, and the wake channel closes on
// the next Append.
func TestEventLogTrimsAndWakes(t *testing.T) {
	const extra = 100
	l := NewEventLog()
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
// the way both the traffic frontend and the coordinator do: buffered
// events arrive framed, an idle stream carries comment heartbeats, and
// the stream ends by itself after the terminal event.
func TestStreamEventsHeartbeatAndClose(t *testing.T) {
	l := NewEventLog()
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
