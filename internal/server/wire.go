package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"simdtree/internal/trace"
)

// The job API's wire contract, written once.  A node (this package) and
// the fleet coordinator fronting many nodes (internal/cluster) both answer
// /v1/jobs requests, and a client that speaks one must speak both
// unchanged.  What they have to agree on byte for byte lives here, as
// plain functions both call: body and error encoding, strict spec and
// batch decoding, event-stream framing (over an EventLog, events.go),
// trace gating, refusals.  The submit and batch loops live in one place
// too, the frontend (frontend.go), which a node and the coordinator both
// mount as their front door over their own SubmitCanonical.

// WriteJSON answers with v as indented JSON plus a trailing newline, the
// encoding of every document the API serves.  A value that does not
// marshal (a NaN float) gets the status and an empty body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	b, _ := marshalDoc(v) //lint:allow errdrop the status is already decided; an unmarshalable value answers with no body
	WriteRaw(w, code, b)
}

// marshalDoc renders v as every document the API serves is encoded:
// exactly json.MarshalIndent(v, "", "  ") plus a trailing newline.  It
// indents json.Marshal's output in one pass of its own, because
// MarshalIndent's general-purpose scanner costs twice what the marshal
// does.
func marshalDoc(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return appendIndented(make([]byte, 0, 2*len(b)), b), nil
}

// MarshalDoc renders v exactly as WriteJSON sends it, for a Job whose
// ResponseBytes are written by someone else (the coordinator's fleet job).
func MarshalDoc(v any) ([]byte, error) { return marshalDoc(v) }

// appendIndented appends src, compact JSON as json.Marshal writes it (no
// whitespace outside strings), indented two spaces a level as json.Indent
// does it, then a newline.  As in json.Indent, an empty object or array
// stays "{}" or "[]": the newline after an opening bracket waits for the
// next byte.
func appendIndented(dst, src []byte) []byte {
	depth, open := 0, false
	for i := 0; i < len(src); {
		c := src[i]
		if open {
			open = false
			if c == '}' || c == ']' {
				dst = append(dst, c)
				i++
				continue
			}
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			end := stringEnd(src, i)
			dst = append(dst, src[i:end]...)
			i = end
		case '{', '[':
			open = true
			dst = append(dst, c)
			i++
		case '}', ']':
			depth--
			dst = append(appendNewline(dst, depth), c)
			i++
		case ',':
			dst = appendNewline(append(dst, c), depth)
			i++
		case ':':
			dst = append(dst, c, ' ')
			i++
		default:
			// A number or a literal, which in compact JSON runs to the
			// next separator or closing bracket.
			j := i + 1
			for j < len(src) && src[j] != ',' && src[j] != '}' && src[j] != ']' {
				j++
			}
			dst = append(dst, src[i:j]...)
			i = j
		}
	}
	return append(dst, '\n')
}

// stringEnd returns the index just past the closing quote of the JSON
// string that opens at src[start]: the first quote not escaped by an odd
// run of backslashes.
func stringEnd(src []byte, start int) int {
	for i := start + 1; ; {
		q := bytes.IndexByte(src[i:], '"')
		if q < 0 {
			return len(src)
		}
		i += q
		slashes := 0
		for src[i-1-slashes] == '\\' {
			slashes++
		}
		if slashes%2 == 0 {
			return i + 1
		}
		i++
	}
}

// newlineIndent is a newline and the indentation of the 32 levels it
// serves in one append; deeper levels append the rest two spaces at a time.
const newlineIndent = "\n                                                                "

func appendNewline(dst []byte, depth int) []byte {
	n := min(depth, len(newlineIndent)/2)
	dst = append(dst, newlineIndent[:1+2*n]...)
	for ; depth > n; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// ErrorBody renders the API's one error body, {"error": msg}, exactly as
// WriteError sends it.
func ErrorBody(msg string) []byte {
	b, _ := marshalDoc(map[string]string{"error": msg}) //lint:allow errdrop a string map always marshals
	return b
}

// WriteError answers with the API's one error body.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteRaw(w, code, ErrorBody(msg))
}

const maxErrorMessage = 512

// ReadError is WriteError's inverse, for whoever calls a node: the message
// of an {"error": msg} body, or, of a body that is not one (a proxy's page,
// a cut-off answer), the body itself — either way at most maxErrorMessage
// bytes of it, so a large answer stays a readable error.
func ReadError(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	msg := string(body)
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	if len(msg) > maxErrorMessage {
		msg = msg[:maxErrorMessage] + "..."
	}
	return msg
}

// WriteRaw answers with pre-rendered JSON bytes unmodified — the collapse
// fan-out and the coordinator's proxying of a node's answer, where byte
// identity is the contract.
func WriteRaw(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b) //lint:allow errdrop response writer errors are unreportable
}

// Apply answers with the refusal and its Retry-After, if it carries one.
func (rf *Refusal) Apply(w http.ResponseWriter) {
	if rf.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(rf.RetryAfter))
	}
	WriteError(w, rf.Code, rf.Message)
}

// decodeStrict decodes a request body of at most limit bytes into v,
// refusing unknown fields.  On failure it answers 400 "bad <what>: ..."
// itself and reports false.
func decodeStrict(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	return decodeFrom(w, http.MaxBytesReader(w, r.Body, limit), what, v)
}

// decodeFrom decodes the first JSON value src holds into v, refusing
// unknown fields; what follows it is never read.  On failure it answers
// 400 "bad <what>: ..." itself and reports false.
func decodeFrom(w http.ResponseWriter, src io.Reader, what string, v any) bool {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad %s: %v", what, err))
		return false
	}
	return true
}

// maxSpecBody bounds a job spec body.
const maxSpecBody = 1 << 20

// specBody is a job spec request body read ahead: Bytes is all of it when
// it ended within the read, and otherwise its first bytes, with the rest
// still unread behind them.
type specBody struct {
	Bytes []byte
	rest  io.Reader // nil when Bytes is the whole body
}

// Whole reports whether Bytes is the entire body.
func (b specBody) Whole() bool { return b.rest == nil }

// readSpec is the bounded read of a job spec body (POST /v1/jobs, POST
// /v1/estimate): at most n bytes of it, under the body's 1 MiB bound.  A
// body that does not end within them is read no further here; a read
// error is kept for Decode to report, as a streaming decode would.
func readSpec(w http.ResponseWriter, r *http.Request, n int) specBody {
	body := http.MaxBytesReader(w, r.Body, maxSpecBody)
	size := n + 1
	if r.ContentLength >= 0 && r.ContentLength < int64(n) {
		size = int(r.ContentLength) + 1
	}
	buf := make([]byte, size)
	k, err := io.ReadFull(body, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return specBody{Bytes: buf[:k]}
	}
	return specBody{Bytes: buf[:k], rest: body}
}

// Decode strictly decodes the spec the body carries, unknown fields
// refused, exactly as a decode streaming the body would: the first JSON
// value, with whatever trails it unread.  It answers 400 itself and
// reports false on failure; the spec is not yet canonical.
func (b specBody) Decode(w http.ResponseWriter) (spec JobSpec, ok bool) {
	var src io.Reader = bytes.NewReader(b.Bytes)
	if b.rest != nil {
		src = io.MultiReader(src, b.rest)
	}
	return spec, decodeFrom(w, src, "job spec", &spec)
}

// decodeSpec reads and strictly decodes a job spec body: readSpec of no
// more than it must, then Decode.  It answers 400 itself and reports false on
// failure; the spec is not yet canonical.
func decodeSpec(w http.ResponseWriter, r *http.Request) (JobSpec, bool) {
	return readSpec(w, r, 0).Decode(w)
}

// BatchRequest is the POST /v1/jobs:batch body.
type BatchRequest struct {
	Jobs []JobSpec `json:"jobs"`
	// Wait defers the response until every admitted job is terminal and
	// inlines each full document.
	Wait bool `json:"wait,omitempty"`
}

// decodeBatch reads a batch body: at most 8 MiB, unknown fields refused,
// between 1 and max specs.  It answers 400 itself and reports false on
// failure.
func decodeBatch(w http.ResponseWriter, r *http.Request, max int) (BatchRequest, bool) {
	var req BatchRequest
	if !decodeStrict(w, r, 8<<20, "batch", &req) {
		return req, false
	}
	if len(req.Jobs) == 0 {
		WriteError(w, http.StatusBadRequest, "batch carries no jobs")
		return req, false
	}
	if len(req.Jobs) > max {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds the %d-job limit", len(req.Jobs), max))
		return req, false
	}
	return req, true
}

// lastEventID extracts an event stream's resume point: the standard
// Last-Event-ID header a reconnecting EventSource sends, or the
// ?last_event_id= query parameter for clients that cannot set headers.
// 0 streams from the beginning of the retained log.
func lastEventID(r *http.Request) (int64, error) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	if raw == "" {
		return 0, nil
	}
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || id < 0 {
		return 0, fmt.Errorf("bad Last-Event-ID %q", raw)
	}
	return id, nil
}

// HeartbeatEvery is a node's cadence of the comment heartbeats that keep
// an idle event stream alive through proxies.
const HeartbeatEvery = 15 * time.Second

// StreamEvents serves a job's progress stream (status transitions, engine
// liveness ticks, checkpoint writes) as Server-Sent Events, from the
// event after sequence number after; since is the log's read side.  Each
// event's sequence number is its SSE id, so a client reconnecting with
// Last-Event-ID resumes where its stream broke; idle, the stream carries
// a comment heartbeat.  It ends after the terminal event or with ctx.
func StreamEvents(ctx context.Context, w http.ResponseWriter, after int64, since func(int64) ([]JobEvent, <-chan struct{}), heartbeat time.Duration) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	tick := time.NewTicker(heartbeat)
	defer tick.Stop()
	for {
		events, wake := since(after)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
				return
			}
			after = ev.Seq
			if ev.Terminal {
				_ = rc.Flush() //lint:allow errdrop the stream is over either way
				return
			}
		}
		if err := rc.Flush(); err != nil {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-wake:
		case <-tick.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		}
	}
}

// serveTrace answers GET /v1/jobs/{id}/trace for a job in the given
// state: 409 when it was submitted without trace=true or has not
// finished, 404 when no trace was recorded.  ?trace_limit=N bounds the
// payload to the first N samples and phases; a large-P job's full trace
// can dwarf everything else a coordinator fans in, and the totals still
// tell the reader what was cut.
func serveTrace(w http.ResponseWriter, r *http.Request, id string, traced bool, status Status, tr *trace.Trace) {
	if !traced {
		WriteError(w, http.StatusConflict, "job was not submitted with trace=true")
		return
	}
	if !status.Terminal() {
		WriteError(w, http.StatusConflict, fmt.Sprintf("job is %s; trace is available once it finishes", status))
		return
	}
	if tr == nil {
		WriteError(w, http.StatusNotFound, "no trace recorded")
		return
	}
	limit := -1
	if q := r.URL.Query().Get("trace_limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("trace_limit must be a non-negative integer, got %q", q))
			return
		}
		limit = n
	}
	WriteJSON(w, http.StatusOK, renderTrace(id, tr, limit))
}
