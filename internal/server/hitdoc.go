package server

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"time"
)

// A cache hit's document differs from every other hit's on the same
// result in five values only: id, tenant and the three timestamps, which a
// hit sets from one now.  Everything else — status, cache key, stats,
// efficiency, the canonical spec — is the cached result's, except the
// spec's timeout_ms, the one field the cache key leaves out.  So the
// first hit renders through marshalDoc as every document does, its bytes
// are cut at those five values, and a later hit with the same timeout_ms
// appends the pieces around its own values instead of encoding the
// document again.

// hitKeys are the top-level keys whose values differ between hits, in
// the order jobResponse encodes them.
var hitKeys = [...]string{"id", "tenant", "submitted_at", "started_at", "finished_at"}

// hitMarkers are hitKeys as they open a line of an indented document:
// nested keys are indented deeper, and a JSON string holds no raw newline,
// so each marks its top-level value unambiguously.
var hitMarkers = func() (m [len(hitKeys)][]byte) {
	for i, k := range hitKeys {
		m[i] = []byte("\n  \"" + k + "\": ")
	}
	return m
}()

// hitDoc is the document template of one cached result, shared by every
// hit on it: nil until its first hit rendered.
type hitDoc struct {
	tmpl atomic.Pointer[hitTemplate]
}

// hitTemplate is a hit's rendered document with the spans of its
// hitKeys values marked.
type hitTemplate struct {
	timeoutMS int
	doc       []byte
	spans     [len(hitKeys)][2]int // [start, end) of each value in doc
}

// render is the document of a hit on the result d templates: appended
// from the template when there is one for v's timeout_ms, and otherwise
// encoded by marshalDoc, whose bytes become the template if there was
// none yet.  Either way the bytes are marshalDoc(renderJob(v))'s.
func (d *hitDoc) render(v jobView) ([]byte, error) {
	if t := d.tmpl.Load(); t != nil {
		if b, ok := t.fill(v); ok {
			return b, nil
		}
	}
	b, err := marshalDoc(renderJob(v))
	if err == nil && d.tmpl.Load() == nil {
		if t, ok := cutHitTemplate(b, v.Spec.TimeoutMS); ok {
			d.tmpl.CompareAndSwap(nil, t)
		}
	}
	return b, err
}

// cutHitTemplate marks the hitKeys values in doc, a hit's document whose
// spec has the given timeout_ms.  It fails when a key is missing or its
// value is not a string (an empty tenant is omitted, for one).
func cutHitTemplate(doc []byte, timeoutMS int) (*hitTemplate, bool) {
	t := &hitTemplate{timeoutMS: timeoutMS, doc: bytes.Clone(doc)}
	from := 0
	for i, m := range hitMarkers {
		k := bytes.Index(t.doc[from:], m)
		if k < 0 {
			return nil, false
		}
		start := from + k + len(m)
		if start >= len(t.doc) || t.doc[start] != '"' {
			return nil, false
		}
		from = stringEnd(t.doc, start)
		t.spans[i] = [2]int{start, from}
	}
	return t, true
}

// fill appends v's document from the template.  It declines a hit whose
// document has another shape: a different timeout_ms, an omitted tenant,
// or timestamps that are not one instant.
func (t *hitTemplate) fill(v jobView) ([]byte, bool) {
	if v.Spec.TimeoutMS != t.timeoutMS || v.Tenant == "" || v.Submitted.IsZero() ||
		!v.Started.Equal(v.Submitted) || !v.Finished.Equal(v.Submitted) {
		return nil, false
	}
	var buf [40]byte
	stamp := v.Submitted.UTC().AppendFormat(buf[:0], time.RFC3339Nano)
	b := make([]byte, 0, len(t.doc)+len(v.ID)+len(v.Tenant)+3*len(stamp))
	from := 0
	for i, span := range t.spans {
		b = append(b, t.doc[from:span[0]]...)
		switch i {
		case 0:
			b = appendJSONString(b, v.ID)
		case 1:
			b = appendJSONString(b, v.Tenant)
		default:
			b = append(append(append(b, '"'), stamp...), '"')
		}
		from = span[1]
	}
	return append(b, t.doc[from:]...), true
}

// appendJSONString appends s as encoding/json encodes a string: plain
// printable ASCII as it is, and anything it escapes (a quote, a
// backslash, <, >, &, a control byte, non-ASCII) by encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) //lint:allow errdrop a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
