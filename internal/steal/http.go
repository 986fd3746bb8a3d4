package steal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"simdtree/internal/checkpoint"
	"simdtree/internal/simd"
)

// Wire types of the shard-session protocol.  []byte fields travel as
// base64 strings (encoding/json's default), which keeps the protocol
// JSON-debuggable; the hot absorb path ships raw frame bytes instead.
type (
	// OpenResponse answers opening a shard session.
	OpenResponse struct {
		Session  string `json:"session"`
		Lo       int    `json:"lo"`
		Hi       int    `json:"hi"`
		AllEmpty bool   `json:"all_empty"`
		AnyDonor bool   `json:"any_donor"`
	}
	// StepResponse is simd.CycleInfo on the wire; a Fault travels as an
	// error response instead.
	StepResponse struct {
		Active   int   `json:"active"`
		Goals    int64 `json:"goals"`
		Peak     int   `json:"peak"`
		AllEmpty bool  `json:"all_empty"`
		AnyDonor bool  `json:"any_donor"`
	}
	// FlagsResponse carries the shard's busy/idle flags.
	FlagsResponse struct {
		Busy []bool `json:"busy"`
		Idle []bool `json:"idle"`
	}
	// TransferRequest asks for a shard-local transfer.
	TransferRequest struct {
		From int `json:"from"`
		To   int `json:"to"`
	}
	// MovedResponse reports nodes moved by a transfer or absorb.
	MovedResponse struct {
		Moved int `json:"moved"`
	}
	// SplitRequest asks the donor shard to split a stack for donation.
	SplitRequest struct {
		Donation uint64 `json:"donation"`
		From     int    `json:"from"`
		To       int    `json:"to"`
	}
	// SplitResponse carries the donated half; Stack is empty when the
	// donor was unsplittable.
	SplitResponse struct {
		Moved int    `json:"moved"`
		Stack []byte `json:"stack,omitempty"`
	}
	// ExportResponse carries the shard's stack payloads and domain state.
	ExportResponse struct {
		Stacks      [][]byte `json:"stacks"`
		DomainState []byte   `json:"domain_state,omitempty"`
	}
	// MergeRequest carries peer shards' domain states to fold in.
	MergeRequest struct {
		States [][]byte `json:"states"`
	}
	// MergeResponse carries the merged domain state.
	MergeResponse struct {
		DomainState []byte `json:"domain_state,omitempty"`
	}
	// StatusResponse carries the cycle-boundary flags.
	StatusResponse struct {
		AllEmpty bool `json:"all_empty"`
		AnyDonor bool `json:"any_donor"`
	}
)

// HTTPShard drives a shard session hosted by a remote simdserve node over
// its /v1/steal/sessions endpoints.  It implements Shard.
type HTTPShard struct {
	client *http.Client
	base   string // node base URL, no trailing slash
	id     string
	lo, hi int
}

// OpenHTTPShard opens a shard session on the node at base: the node
// decodes the checkpoint, builds the shard machine for [lo, hi) and
// returns a session handle.  spool asks the node to persist checkpoints
// shipped via WriteCheckpoint under the job's spool entry, making the
// sharded job survive a node restart.
func OpenHTTPShard(ctx context.Context, client *http.Client, base string, ckpt []byte, lo, hi int, spool bool) (*HTTPShard, error) {
	if client == nil {
		client = http.DefaultClient
	}
	q := url.Values{}
	q.Set("lo", strconv.Itoa(lo))
	q.Set("hi", strconv.Itoa(hi))
	if spool {
		q.Set("spool", "1")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/steal/sessions?"+q.Encode(), bytes.NewReader(ckpt))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", checkpoint.ContentType)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	var open OpenResponse
	if err := readJSON(resp, &open); err != nil {
		return nil, fmt.Errorf("steal: opening shard session on %s: %w", base, err)
	}
	if open.Session == "" || open.Lo != lo || open.Hi != hi {
		return nil, fmt.Errorf("steal: node %s answered session %q range [%d, %d), want [%d, %d)", base, open.Session, open.Lo, open.Hi, lo, hi)
	}
	return &HTTPShard{client: client, base: base, id: open.Session, lo: lo, hi: hi}, nil
}

// Base returns the node base URL the shard session lives on.
func (s *HTTPShard) Base() string { return s.base }

// Session returns the node-assigned session id.
func (s *HTTPShard) Session() string { return s.id }

// Range implements Shard.
func (s *HTTPShard) Range() (int, int) { return s.lo, s.hi }

func (s *HTTPShard) url(suffix string) string {
	return s.base + "/v1/steal/sessions/" + url.PathEscape(s.id) + suffix
}

// roundTrip issues one session request and decodes a JSON response into
// out (when non-nil).
func (s *HTTPShard) roundTrip(ctx context.Context, method, u, contentType string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	if out == nil {
		return drain(resp)
	}
	return readJSON(resp, out)
}

// post sends a JSON body (when in is non-nil) and decodes a JSON response.
func (s *HTTPShard) post(ctx context.Context, suffix string, in, out any) error {
	var body []byte
	contentType := ""
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = b
		contentType = "application/json"
	}
	return s.roundTrip(ctx, http.MethodPost, s.url(suffix), contentType, body, out)
}

// Step implements Shard.
func (s *HTTPShard) Step(ctx context.Context) (simd.CycleInfo, error) {
	var sr StepResponse
	if err := s.post(ctx, "/step", nil, &sr); err != nil {
		return simd.CycleInfo{}, err
	}
	return simd.CycleInfo{
		Active:   sr.Active,
		Goals:    sr.Goals,
		Peak:     sr.Peak,
		AllEmpty: sr.AllEmpty,
		AnyDonor: sr.AnyDonor,
	}, nil
}

// Flags implements Shard.
func (s *HTTPShard) Flags(ctx context.Context) ([]bool, []bool, error) {
	var fr FlagsResponse
	if err := s.roundTrip(ctx, http.MethodGet, s.url("/flags"), "", nil, &fr); err != nil {
		return nil, nil, err
	}
	return fr.Busy, fr.Idle, nil
}

// Transfer implements Shard.
func (s *HTTPShard) Transfer(ctx context.Context, from, to int) (int, error) {
	var mr MovedResponse
	if err := s.post(ctx, "/transfer", TransferRequest{From: from, To: to}, &mr); err != nil {
		return 0, err
	}
	return mr.Moved, nil
}

// Split implements Shard.
func (s *HTTPShard) Split(ctx context.Context, id uint64, from, to int) ([]byte, int, error) {
	var sr SplitResponse
	if err := s.post(ctx, "/split", SplitRequest{Donation: id, From: from, To: to}, &sr); err != nil {
		return nil, 0, err
	}
	if sr.Moved == 0 {
		return nil, 0, nil
	}
	if len(sr.Stack) == 0 {
		return nil, 0, fmt.Errorf("steal: node %s split %d nodes but sent no stack", s.base, sr.Moved)
	}
	return sr.Stack, sr.Moved, nil
}

// Absorb implements Shard, shipping the frame bytes raw.
func (s *HTTPShard) Absorb(ctx context.Context, frame []byte) (int, error) {
	var mr MovedResponse
	if err := s.roundTrip(ctx, http.MethodPost, s.url("/absorb"), ContentType, frame, &mr); err != nil {
		return 0, err
	}
	return mr.Moved, nil
}

// Export implements Shard.
func (s *HTTPShard) Export(ctx context.Context) ([][]byte, []byte, error) {
	var er ExportResponse
	if err := s.roundTrip(ctx, http.MethodGet, s.url("/export"), "", nil, &er); err != nil {
		return nil, nil, err
	}
	return er.Stacks, er.DomainState, nil
}

// Merge implements Shard.
func (s *HTTPShard) Merge(ctx context.Context, states [][]byte) ([]byte, error) {
	var mr MergeResponse
	if err := s.post(ctx, "/merge", MergeRequest{States: states}, &mr); err != nil {
		return nil, err
	}
	return mr.DomainState, nil
}

// Status implements Shard.
func (s *HTTPShard) Status(ctx context.Context) (bool, bool, error) {
	var sr StatusResponse
	if err := s.roundTrip(ctx, http.MethodGet, s.url("/status"), "", nil, &sr); err != nil {
		return false, false, err
	}
	return sr.AllEmpty, sr.AnyDonor, nil
}

// WriteCheckpoint ships an assembled cluster-wide checkpoint to the node
// hosting this shard session; a session opened with spool enabled persists
// it under the job's spool entry.
func (s *HTTPShard) WriteCheckpoint(ctx context.Context, encoded []byte) error {
	return s.roundTrip(ctx, http.MethodPut, s.url("/checkpoint"), checkpoint.ContentType, encoded, nil)
}

// Close releases the session.  dropSpool additionally removes the spool
// entry the session wrote (used after a successful distributed run; a
// failed run keeps the last shipped checkpoint for recovery).
func (s *HTTPShard) Close(ctx context.Context, dropSpool bool) error {
	u := s.url("")
	if dropSpool {
		u += "?drop_spool=1"
	}
	return s.roundTrip(ctx, http.MethodDelete, u, "", nil, nil)
}

// readJSON checks the status and decodes the body into out.
func readJSON(resp *http.Response, out any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxFrameSize+(1<<20)))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return statusError(resp.StatusCode, body)
	}
	return json.Unmarshal(body, out)
}

// drain consumes a no-content response, surfacing error statuses.
func drain(resp *http.Response) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return statusError(resp.StatusCode, body)
	}
	return nil
}

// statusError turns a non-OK response into an error, preferring the
// server's JSON error message.
func statusError(code int, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("steal: node answered %d: %s", code, e.Error)
	}
	msg := string(body)
	if len(msg) > 200 {
		msg = msg[:200]
	}
	if msg == "" {
		return errors.New("steal: node answered " + strconv.Itoa(code))
	}
	return fmt.Errorf("steal: node answered %d: %s", code, msg)
}
