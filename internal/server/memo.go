package server

import (
	"sync"
)

// The admission memo's bounds: only a body read whole within maxMemoBody
// bytes is memoised, and the map is emptied wholesale when it reaches
// maxMemoEntries entries or maxMemoBytes bytes of bodies.  Emptying it
// only costs misses.
const (
	maxMemoBody    = 4 << 10
	maxMemoEntries = 1024
	maxMemoBytes   = 256 << 10
)

// admission is what a job spec body admits as: its canonical spec, that
// spec's cache key, and its estimate.  All three are functions of the
// body's bytes alone, so a body seen before is admitted from the memo
// without decoding, canonicalising, hashing or pricing it again.  The
// canonical spec is shared by every job admitted from the entry and is
// only ever read.
type admission struct {
	canonical JobSpec
	key       string
	est       estimate
}

// admissionMemo maps request bodies that passed the strict decode and
// the backend's CanonicalizeSpec to their admission.  A body that failed
// either never enters, so a bad body is refused by the full path every
// time, with the same status and text.
type admissionMemo struct {
	mu     sync.Mutex
	byBody map[string]admission
	bytes  int // body bytes held in byBody
}

// get looks body up; the lookup does not copy it.  A body not read
// whole is never found.
func (m *admissionMemo) get(body specBody) (admission, bool) {
	if !body.Whole() {
		return admission{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.byBody[string(body.Bytes)]
	return a, ok
}

// put records the admission of a body read whole, first emptying the
// memo if it is full.
func (m *admissionMemo) put(body specBody, a admission) {
	if !body.Whole() {
		return
	}
	b := body.Bytes
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.byBody == nil || len(m.byBody) >= maxMemoEntries || m.bytes+len(b) > maxMemoBytes {
		m.byBody, m.bytes = make(map[string]admission), 0
	}
	if _, ok := m.byBody[string(b)]; !ok {
		m.byBody[string(b)] = a
		m.bytes += len(b)
	}
}
