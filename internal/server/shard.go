package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"simdtree/internal/checkpoint"
	"simdtree/internal/simd"
	"simdtree/internal/steal"
)

// The shard-session protocol, written once.  A stolen job's node drives
// each shard its peers host through eight per-session calls, one per
// steal.Host method; each is declared below as one shardOp value, and both
// halves of the call are derived from that declaration: register mounts
// the peer's handler, call is the driving node's request.  Neither half
// spells a path suffix or a wire document of its own, so the two cannot
// drift apart.  (Opening and closing a session are session lifecycle, not
// Host calls: their handlers are in steal.go, their client halves at the
// bottom of this file.)

// sessionsPath is the collection every session route hangs off, and
// sessionRoute one session in it as the node's mux spells it.
const (
	sessionsPath = "/v1/steal/sessions"
	sessionRoute = sessionsPath + "/{sid}"
)

// NodeCall is one request to a node: its status and bounded body, or a
// transport failure — never a status as an error.  Caller makes one of
// RoundTrip.
type NodeCall func(ctx context.Context, method, url, contentType string, body []byte) (code int, resp []byte, err error)

// peerTimeout bounds every call a node makes to a peer, and the teardown
// that closes a distributed run's sessions.
const peerTimeout = 30 * time.Second

// maxNodeResponse bounds any body read from a node: the bound of the
// checkpoint a shard session is opened from, so a session's export can
// always be read back; traces, the other large payload, fit comfortably.
const maxNodeResponse = checkpoint.MaxFrameSize

// RoundTrip is the one bounded outbound request: a node driving its
// peers' shard sessions and the fleet coordinator asking a node anything
// both go through it (the coordinator's SSE proxy, which must not buffer,
// is the only other client).  body, contentType and header are optional.
// It returns the status, the body and the response headers; err is a
// transport failure or an oversized body, never a status.
func RoundTrip(ctx context.Context, client *http.Client, method, url, contentType string, body []byte, header http.Header) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := ReadBounded(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}

// caller is RoundTrip over client as a NodeCall: no request headers, none
// read back.
func caller(client *http.Client) NodeCall {
	return func(ctx context.Context, method, url, contentType string, body []byte) (int, []byte, error) {
		code, b, _, err := RoundTrip(ctx, client, method, url, contentType, body, nil)
		return code, b, err
	}
}

// ReadBounded reads a node's answer, refusing one over maxNodeResponse.
func ReadBounded(r io.Reader) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, maxNodeResponse+1))
	if err != nil {
		return nil, err
	}
	if len(b) > maxNodeResponse {
		return nil, fmt.Errorf("server: node response exceeds %d bytes", maxNodeResponse)
	}
	return b, nil
}

// Wire documents of the protocol.  []byte fields travel as base64 strings
// (encoding/json's default), which keeps the protocol JSON-debuggable; the
// hot absorb path ships raw frame bytes instead.
type (
	// statusResponse carries the cycle-boundary flags.
	statusResponse struct {
		AllEmpty bool `json:"all_empty"`
		AnyDonor bool `json:"any_donor"`
	}
	openResponse struct {
		Session string `json:"session"`
		Lo      int    `json:"lo"`
		Hi      int    `json:"hi"`
		statusResponse
	}
	// stepResponse is simd.CycleInfo on the wire; a Fault travels as an
	// error response instead.
	stepResponse struct {
		Active int   `json:"active"`
		Goals  int64 `json:"goals"`
		Peak   int   `json:"peak"`
		statusResponse
	}
	flagsResponse struct {
		Busy []bool `json:"busy"`
		Idle []bool `json:"idle"`
	}
	transferRequest struct {
		From int `json:"from"`
		To   int `json:"to"`
	}
	// movedResponse reports nodes moved by a transfer or absorb.
	movedResponse struct {
		Moved int `json:"moved"`
	}
	// splitRequest asks the donor shard to split a stack for donation.
	splitRequest struct {
		Donation uint64 `json:"donation"`
		From     int    `json:"from"`
		To       int    `json:"to"`
	}
	// splitResponse carries the donated half; Stack is empty when the
	// donor was unsplittable.
	splitResponse struct {
		Moved int    `json:"moved"`
		Stack []byte `json:"stack,omitempty"`
	}
	exportResponse struct {
		Stacks      [][]byte `json:"stacks"`
		DomainState []byte   `json:"domain_state,omitempty"`
	}
	mergeRequest struct {
		States [][]byte `json:"states"`
	}
	mergeResponse struct {
		DomainState []byte `json:"domain_state,omitempty"`
	}
)

// shardOp is one call of the protocol: <method> …/sessions/{sid}/<name>.
// Req is struct{} for a call without a body, []byte for the raw SSTL frame,
// and otherwise a JSON document decoded strictly (an empty, malformed or
// unknown-field body is a 400 that never reaches the Host).  fail is the
// status a Host error answers with: 500 where the error is the shard's own
// failure (a step Fault, an export), 400 where it is the request's.
type shardOp[Req, Resp any] struct {
	method, name string
	fail         int
	host         func(s *Server, h steal.Host, req Req) (Resp, error)
}

// The eight calls.  The Server argument is for the /metrics frame counters.
var (
	opStep = shardOp[struct{}, stepResponse]{http.MethodPost, "step", http.StatusInternalServerError,
		func(_ *Server, h steal.Host, _ struct{}) (stepResponse, error) {
			ci := h.Step()
			return stepResponse{ci.Active, ci.Goals, ci.Peak, statusResponse{ci.AllEmpty, ci.AnyDonor}}, ci.Fault
		}}
	opFlags = shardOp[struct{}, flagsResponse]{http.MethodGet, "flags", http.StatusBadRequest,
		func(_ *Server, h steal.Host, _ struct{}) (flagsResponse, error) {
			busy, idle := h.Flags()
			return flagsResponse{busy, idle}, nil
		}}
	opStatus = shardOp[struct{}, statusResponse]{http.MethodGet, "status", http.StatusBadRequest,
		func(_ *Server, h steal.Host, _ struct{}) (statusResponse, error) {
			allEmpty, anyDonor := h.Status()
			return statusResponse{allEmpty, anyDonor}, nil
		}}
	opTransfer = shardOp[transferRequest, movedResponse]{http.MethodPost, "transfer", http.StatusBadRequest,
		func(_ *Server, h steal.Host, req transferRequest) (movedResponse, error) {
			moved, err := h.Transfer(req.From, req.To)
			return movedResponse{moved}, err
		}}
	opSplit = shardOp[splitRequest, splitResponse]{http.MethodPost, "split", http.StatusBadRequest,
		func(s *Server, h steal.Host, req splitRequest) (splitResponse, error) {
			payload, moved, err := h.Split(req.Donation, req.From, req.To)
			if moved > 0 {
				s.ctr.stealFramesSplit.Add(1)
			}
			return splitResponse{moved, payload}, err
		}}
	opAbsorb = shardOp[[]byte, movedResponse]{http.MethodPost, "absorb", http.StatusBadRequest,
		func(s *Server, h steal.Host, frame []byte) (movedResponse, error) {
			moved, err := h.Absorb(frame)
			if err == nil {
				s.ctr.stealFramesAbsorbed.Add(1)
			}
			return movedResponse{moved}, err
		}}
	opExport = shardOp[struct{}, exportResponse]{http.MethodGet, "export", http.StatusInternalServerError,
		func(_ *Server, h steal.Host, _ struct{}) (exportResponse, error) {
			stacks, domainState, err := h.Export()
			return exportResponse{stacks, domainState}, err
		}}
	opMerge = shardOp[mergeRequest, mergeResponse]{http.MethodPost, "merge", http.StatusBadRequest,
		func(_ *Server, h steal.Host, req mergeRequest) (mergeResponse, error) {
			merged, err := h.Merge(req.States)
			return mergeResponse{merged}, err
		}}
)

// shardOps is the route table Server.Handler mounts.  Ops of different
// instantiations share a slice only through an interface; route lets the
// conformance test range over the table instead of keeping a second list.
var shardOps = []interface {
	register(s *Server, mux *http.ServeMux)
	route() (method, name string)
}{opStep, opFlags, opStatus, opTransfer, opSplit, opAbsorb, opExport, opMerge}

func (op shardOp[Req, Resp]) route() (method, name string) { return op.method, op.name }

// register mounts the node half: session lookup, the request read by its
// kind, the Host call, the answer.  Sessions are driven strictly one call
// at a time; the per-session mutex serialises overlapping requests and is
// held only around the Host call, never while a body is read or written.
func (op shardOp[Req, Resp]) register(s *Server, mux *http.ServeMux) {
	mux.HandleFunc(op.method+" "+sessionRoute+"/"+op.name, func(w http.ResponseWriter, r *http.Request) {
		sess, ok := s.steal.get(r.PathValue("sid"))
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown shard session")
			return
		}
		var req Req
		switch p := any(&req).(type) {
		case *struct{}:
		case *[]byte:
			frame, err := io.ReadAll(http.MaxBytesReader(w, r.Body, steal.MaxFrameSize))
			if err != nil {
				WriteError(w, http.StatusBadRequest, fmt.Sprintf("reading frame: %v", err))
				return
			}
			*p = frame
		default:
			if !decodeStrict(w, r, checkpoint.MaxFrameSize, op.name+" request", p) {
				return
			}
		}
		sess.mu.Lock()
		resp, err := op.host(s, sess.host, req)
		sess.mu.Unlock()
		if err != nil {
			WriteError(w, op.fail, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	})
}

// call is the driving node's half: the same request kinds, encoded.
func (op shardOp[Req, Resp]) call(ctx context.Context, c *ShardClient, req Req) (resp Resp, err error) {
	var body []byte
	contentType := ""
	switch p := any(&req).(type) {
	case *struct{}:
	case *[]byte:
		body, contentType = *p, steal.ContentType
	default:
		if body, err = json.Marshal(p); err != nil {
			return resp, err
		}
		contentType = "application/json"
	}
	raw, err := c.do(ctx, op.method, c.session+"/"+op.name, contentType, body)
	if err == nil {
		err = json.Unmarshal(raw, &resp)
	}
	return resp, err
}

// ShardClient drives a shard session hosted by a remote node.  It
// implements steal.Shard; every method is its shardOp's call.
type ShardClient struct {
	node    NodeCall
	base    string // node base URL, no trailing slash
	id      string
	session string // "/<escaped id>", known once the node has answered the open
	lo, hi  int
}

// OpenShard opens a shard session on the node at base: the node decodes
// the checkpoint, builds the shard machine for [lo, hi) and returns a
// session handle.
func OpenShard(ctx context.Context, node NodeCall, base string, ckpt []byte, lo, hi int) (*ShardClient, error) {
	c := &ShardClient{node: node, base: base, lo: lo, hi: hi}
	raw, err := c.do(ctx, http.MethodPost, fmt.Sprintf("?lo=%d&hi=%d", lo, hi), checkpoint.ContentType, ckpt)
	var open openResponse
	if err == nil {
		err = json.Unmarshal(raw, &open)
	}
	if err != nil {
		return nil, fmt.Errorf("server: opening shard session on %s: %w", base, err)
	}
	c.id, c.session = open.Session, "/"+url.PathEscape(open.Session)
	if open.Session == "" || open.Lo != lo || open.Hi != hi {
		if open.Session != "" {
			// The node did open something; do not leave it holding one of
			// its session slots.
			_ = c.Close(ctx) //lint:allow errdrop the mismatch below is the error worth reporting
		}
		return nil, fmt.Errorf("server: node %s answered session %q range [%d, %d), want [%d, %d)", base, open.Session, open.Lo, open.Hi, lo, hi)
	}
	return c, nil
}

// do issues one request under the node's sessions collection and returns
// the body of a 200 or 204; any other status is the node's error.
func (c *ShardClient) do(ctx context.Context, method, rest, contentType string, body []byte) ([]byte, error) {
	code, resp, err := c.node(ctx, method, c.base+sessionsPath+rest, contentType, body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK && code != http.StatusNoContent {
		return nil, fmt.Errorf("server: node answered %d: %s", code, ReadError(resp))
	}
	return resp, nil
}

// Session returns the node-assigned session id.
func (c *ShardClient) Session() string { return c.id }

// Range and the eight calls implement steal.Shard.
func (c *ShardClient) Range() (int, int) { return c.lo, c.hi }

func (c *ShardClient) Step(ctx context.Context) (simd.CycleInfo, error) {
	r, err := opStep.call(ctx, c, struct{}{})
	return simd.CycleInfo{Active: r.Active, Goals: r.Goals, Peak: r.Peak, AllEmpty: r.AllEmpty, AnyDonor: r.AnyDonor}, err
}

func (c *ShardClient) Flags(ctx context.Context) ([]bool, []bool, error) {
	r, err := opFlags.call(ctx, c, struct{}{})
	return r.Busy, r.Idle, err
}

func (c *ShardClient) Status(ctx context.Context) (bool, bool, error) {
	r, err := opStatus.call(ctx, c, struct{}{})
	return r.AllEmpty, r.AnyDonor, err
}

func (c *ShardClient) Transfer(ctx context.Context, from, to int) (int, error) {
	r, err := opTransfer.call(ctx, c, transferRequest{from, to})
	return r.Moved, err
}

func (c *ShardClient) Split(ctx context.Context, id uint64, from, to int) ([]byte, int, error) {
	r, err := opSplit.call(ctx, c, splitRequest{id, from, to})
	if err == nil && r.Moved > 0 && len(r.Stack) == 0 {
		return nil, 0, fmt.Errorf("server: node %s split %d nodes but sent no stack", c.base, r.Moved)
	}
	return r.Stack, r.Moved, err
}

func (c *ShardClient) Absorb(ctx context.Context, frame []byte) (int, error) {
	r, err := opAbsorb.call(ctx, c, frame)
	return r.Moved, err
}

func (c *ShardClient) Export(ctx context.Context) ([][]byte, []byte, error) {
	r, err := opExport.call(ctx, c, struct{}{})
	return r.Stacks, r.DomainState, err
}

func (c *ShardClient) Merge(ctx context.Context, states [][]byte) ([]byte, error) {
	r, err := opMerge.call(ctx, c, mergeRequest{states})
	return r.DomainState, err
}

// Close releases the session.
func (c *ShardClient) Close(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodDelete, c.session, "", nil)
	return err
}
