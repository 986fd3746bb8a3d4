package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// memoFrontend is the frontend of a fresh node, driven in-process.
func memoFrontend(t *testing.T) (*frontend, http.Handler) {
	t.Helper()
	s, _ := testServer(t, Config{Workers: 2})
	return s.front, s.Handler()
}

// len reports the entries and body bytes the memo holds.
func (m *admissionMemo) len() (entries, bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byBody), m.bytes
}

// post submits body with ?wait=1 under tenant ("" sends no header).
func post(h http.Handler, body io.Reader, tenant string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", body)
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// fullPathRefusal is how a body is refused without the memo: the strict
// decode, the tenant, then the backend's canonicalisation, each answering
// 400 with its own text.  It returns 0 for a body that is admitted.
func fullPathRefusal(f *frontend, body, tenant string) (int, string) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	spec, ok := decodeSpec(rec, req)
	if !ok {
		return rec.Code, rec.Body.String()
	}
	if _, err := tenantFrom(req); err != nil {
		return http.StatusBadRequest, string(ErrorBody(err.Error()))
	}
	if _, err := f.b.CanonicalizeSpec(spec); err != nil {
		return http.StatusBadRequest, string(ErrorBody(err.Error()))
	}
	return 0, ""
}

const memoSpec = `{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":500,"seed":7}}`

// TestMemoAdmitsRepeats: a repeated body is admitted from the memo, under
// each request's own tenant, and a bad tenant is still refused.
func TestMemoAdmitsRepeats(t *testing.T) {
	f, h := memoFrontend(t)
	first := post(h, strings.NewReader(memoSpec), "")
	if first.Code != http.StatusOK {
		t.Fatalf("first: %d %s", first.Code, first.Body)
	}
	if n, _ := f.memo.len(); n != 1 {
		t.Fatalf("memo holds %d entries after one good body, want 1", n)
	}
	var doc struct {
		CacheHit bool   `json:"cache_hit"`
		Tenant   string `json:"tenant"`
		Stats    json.RawMessage
	}
	if err := json.Unmarshal(first.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	stats := doc.Stats
	// A body of unknown length (chunked) is memoised just the same.
	for _, body := range []io.Reader{strings.NewReader(memoSpec), io.MultiReader(strings.NewReader(memoSpec))} {
		rec := post(h, body, "t2")
		if rec.Code != http.StatusOK {
			t.Fatalf("repeat: %d %s", rec.Code, rec.Body)
		}
		doc.Stats = nil
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if !doc.CacheHit || doc.Tenant != "t2" || string(doc.Stats) != string(stats) {
			t.Fatalf("repeat: cache_hit %v tenant %q stats %s, want a hit for t2 with %s", doc.CacheHit, doc.Tenant, doc.Stats, stats)
		}
	}
	if n, _ := f.memo.len(); n != 1 {
		t.Fatalf("memo holds %d entries after repeats of one body, want 1", n)
	}
	rec := post(h, strings.NewReader(memoSpec), "a b")
	code, want := fullPathRefusal(f, memoSpec, "a b")
	if rec.Code != code || rec.Body.String() != want {
		t.Fatalf("memoised body, bad tenant: %d %s, want %d %s", rec.Code, rec.Body, code, want)
	}
}

// TestMemoRefusalsNeverEnter: a body that fails the strict decode or
// canonicalisation never enters the memo, and every repeat of it is
// refused 400 with exactly the full path's text.
func TestMemoRefusalsNeverEnter(t *testing.T) {
	f, h := memoFrontend(t)
	for _, body := range []string{
		`{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":500},"bogus":1}`,
		`{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":500,"bogus":1}}`,
		`{"domain":"synthetic","scheme":"XX-9","p":8,"synthetic":{"w":500}}`,
		`{"domain":"synthetic","scheme":"GP-DK","p":0,"synthetic":{"w":500}}`,
		`{"domain":"synthetic","scheme":"GP-DK","p":-3,"synthetic":{"w":500}}`,
		`{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":0}}`,
		`{"domain":"synthetic","scheme":"GP-DK","p":8,"queens":{"n":6}}`,
		`{"domain":"queens","scheme":"GP-DK","p":8,"queens":{"n":99}}`,
		`{"domain":"puzzle","scheme":"GP-DK","p":8,"puzzle":{"tiles":[1,2,3]}}`,
		`{"domain":"synthetic","scheme":"GP-DK","p":8,`,
		``,
	} {
		code, want := fullPathRefusal(f, body, "")
		if code != http.StatusBadRequest {
			t.Fatalf("%s: the full path answers %d, want 400", body, code)
		}
		for i := 0; i < 2; i++ {
			rec := post(h, strings.NewReader(body), "")
			if rec.Code != code || rec.Body.String() != want {
				t.Fatalf("%s, submission %d: %d %s, want %d %s", body, i, rec.Code, rec.Body, code, want)
			}
		}
		if n, b := f.memo.len(); n != 0 || b != 0 {
			t.Fatalf("%s: memo holds %d entries, %d bytes, want none", body, n, b)
		}
	}
}

// TestMemoLargeBodies: a body over maxMemoBody, and a valid object
// trailed by more than the 1 MiB body bound, take the full path and are
// answered as a streaming decode answers them: the trailing bytes are
// never read; a body whose object lies past the bound is too large.
func TestMemoLargeBodies(t *testing.T) {
	f, h := memoFrontend(t)
	if rec := post(h, strings.NewReader(memoSpec), ""); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", rec.Code, rec.Body)
	}
	entries, bytes := f.memo.len()
	for _, tc := range []struct {
		name string
		body string
		code int
		want string
	}{
		{"padded past the memo bound", strings.Repeat(" ", maxMemoBody) + memoSpec, http.StatusOK, `"cache_hit": true`},
		{"trailed past the body bound", memoSpec + strings.Repeat("x", 1<<20+10), http.StatusOK, `"cache_hit": true`},
		{"object past the body bound", strings.Repeat(" ", 1<<20+10) + memoSpec, http.StatusBadRequest, "request body too large"},
	} {
		for _, chunked := range []bool{false, true} {
			var body io.Reader = strings.NewReader(tc.body)
			if chunked {
				body = io.MultiReader(body)
			}
			rec := post(h, body, "")
			if rec.Code != tc.code || !strings.Contains(rec.Body.String(), tc.want) {
				t.Fatalf("%s (chunked %v): %d %.200s, want %d with %q", tc.name, chunked, rec.Code, rec.Body, tc.code, tc.want)
			}
			if tc.code == http.StatusBadRequest {
				if code, want := fullPathRefusal(f, tc.body, ""); rec.Body.String() != want || code != tc.code {
					t.Fatalf("%s: %s, the full path answers %d %s", tc.name, rec.Body, code, want)
				}
			}
		}
		if e, b := f.memo.len(); e != entries || b != bytes {
			t.Fatalf("%s: memo went from %d entries, %d bytes to %d, %d", tc.name, entries, bytes, e, b)
		}
	}
}

// TestMemoBounded: after 10 000 unique admitted bodies the memo is within
// both of its bounds, having emptied itself as it reached them.
func TestMemoBounded(t *testing.T) {
	f, h := memoFrontend(t)
	for i := 0; i < 10000; i++ {
		// One cache key: timeout_ms is not part of it, so after the
		// first run every body is a hit, and each is a new body.
		body := fmt.Sprintf(`{%s"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":500,"seed":7},"timeout_ms":%d}`,
			strings.Repeat(" ", i*37%3000), 60000+i)
		if rec := post(h, strings.NewReader(body), ""); rec.Code != http.StatusOK {
			t.Fatalf("body %d: %d %s", i, rec.Code, rec.Body)
		}
		if n, b := f.memo.len(); n > maxMemoEntries || b > maxMemoBytes || n == 0 {
			t.Fatalf("after body %d the memo holds %d entries, %d bytes; want 1..%d entries, at most %d bytes",
				i, n, b, maxMemoEntries, maxMemoBytes)
		}
	}
}

// TestMemoSharedSpecUnchanged: a memoised puzzle spec with explicit tiles
// is shared by the jobs it admits, which only read it — after two runs
// the entry still equals a fresh canonicalisation of its body.
func TestMemoSharedSpecUnchanged(t *testing.T) {
	f, h := memoFrontend(t)
	const body = `{"domain":"puzzle","scheme":"GP-DK","p":8,"puzzle":{"tiles":[4,1,2,3,0,5,6,7,8,9,10,11,12,13,14,15],"seed":9}}`
	for i := 0; i < 2; i++ {
		if rec := post(h, strings.NewReader(body), ""); rec.Code != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	// A second body of the same spec runs the engine again.
	spaced := " " + body
	if rec := post(h, strings.NewReader(spaced), ""); rec.Code != http.StatusOK {
		t.Fatalf("spaced: %d %s", rec.Code, rec.Body)
	}
	var spec JobSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	fresh, err := f.b.CanonicalizeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{body, spaced} {
		a, ok := f.memo.get(specBody{Bytes: []byte(b)})
		if !ok {
			t.Fatalf("%s was not memoised", b)
		}
		if !reflect.DeepEqual(a.canonical, fresh) || a.key != CacheKey(fresh) || a.est != forSpec(fresh) {
			t.Fatalf("memo entry %+v (puzzle %+v), want %+v (puzzle %+v)", a.canonical, *a.canonical.Puzzle, fresh, *fresh.Puzzle)
		}
	}
}

// renderless is a backend whose jobs finish at once but whose documents
// fail to render.
type renderless struct {
	hit bool
}

func (b renderless) CanonicalizeSpec(spec JobSpec) (JobSpec, error) {
	return Canonicalize(spec, map[string]bool{"synthetic": true})
}

func (b renderless) SubmitCanonical(_ context.Context, _ JobSpec, key, _ string, _ float64) (Job, *Refusal) {
	return renderlessJob{key: key, hit: b.hit}, nil
}

func (renderless) Metrics() map[string]any { return map[string]any{} }

type renderlessJob struct {
	key string
	hit bool
}

func (j renderlessJob) ID() string                     { return "j1" }
func (j renderlessJob) Key() string                    { return j.key }
func (j renderlessJob) Status() Status                 { return StatusDone }
func (j renderlessJob) Terminal() bool                 { return true }
func (j renderlessJob) CacheHit() bool                 { return j.hit }
func (j renderlessJob) Done() <-chan struct{}          { return closedDone }
func (j renderlessJob) ResponseBytes() ([]byte, error) { return nil, errors.New("no document") }

// TestRenderFailureIs500: a terminal job whose document does not render
// is answered 500, by the single route (a cache hit, an engine run, with
// and without ?wait=1) and in its batch item, as a pending job's render
// failure already was.
func TestRenderFailureIs500(t *testing.T) {
	want := string(ErrorBody(renderFailed))
	for _, hit := range []bool{true, false} {
		h := NewFrontend(renderless{hit: hit}, http.NotFoundHandler())
		for _, path := range []string{"/v1/jobs", "/v1/jobs?wait=1"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(memoSpec)))
			if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
				t.Fatalf("hit %v, POST %s: %d %s, want 500 %s", hit, path, rec.Code, rec.Body, want)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs:batch",
			strings.NewReader(`{"wait":true,"jobs":[`+memoSpec+`]}`)))
		var br struct {
			Items []struct {
				Code  int             `json:"code"`
				Error string          `json:"error"`
				Job   json.RawMessage `json:"job"`
			} `json:"items"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || len(br.Items) != 1 {
			t.Fatalf("hit %v, batch: %d %s", hit, rec.Code, rec.Body)
		}
		if it := br.Items[0]; it.Code != http.StatusInternalServerError || it.Error != renderFailed || it.Job != nil {
			t.Fatalf("hit %v, batch item: code %d error %q job %s, want 500 %q and no job", hit, it.Code, it.Error, it.Job, renderFailed)
		}
	}
}
