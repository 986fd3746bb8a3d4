package server

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// hitOf submits canonical to s and returns its job, waiting it out when
// it runs the engine.
func hitOf(t *testing.T, s *Server, canonical JobSpec, tenant string) *job {
	t.Helper()
	h, rf := s.SubmitCanonical(context.Background(), canonical, CacheKey(canonical), tenant, 1)
	if rf != nil {
		t.Fatalf("submit %+v: %d %s", canonical, rf.Code, rf.Message)
	}
	j := h.(*job)
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.id)
	}
	return j
}

// TestHitTemplateByteIdentical holds a cache hit's templated document to
// marshalDoc(renderJob(view)) — the one encoder every other document goes
// through — over every value a template substitutes: ids of every width,
// tenants encoding/json escapes, timestamps with and without nanoseconds
// and in other zones, for one spec of each built-in domain, traced and
// untraced.
func TestHitTemplateByteIdentical(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	})
	specs := []JobSpec{
		{Domain: "puzzle", Scheme: "GP-DK", P: 8, Puzzle: &PuzzleSpec{Seed: 3, Steps: 10}},
		{Domain: "queens", Scheme: "nGP-S0.85", P: 8, Topology: "hypercube", Queens: &QueensSpec{N: 6}},
		{Domain: "synthetic", Scheme: "GP-S0.90", P: 16, Synthetic: &SyntheticSpec{W: 2000, Seed: 4}},
	}
	ids := []string{"j1", "j9", "j10", "j12345", "j999999999999"}
	tenants := []string{"default", "t1", `a"b`, `back\slash`, "<tag>", "a&b", `"\<>&`, "tab\there", "ünï"}
	stamps := []time.Time{
		time.Date(2026, 10, 17, 1, 2, 3, 0, time.UTC),
		time.Date(2026, 10, 17, 1, 2, 3, 456789000, time.UTC),
		time.Date(2026, 10, 17, 1, 2, 3, 1, time.FixedZone("x", -7*3600)),
		time.Date(1999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("y", 5*3600+1800)),
	}
	for _, spec := range specs {
		for _, traced := range []bool{false, true} {
			spec.Trace = traced
			canonical, err := Canonicalize(spec, s.domains)
			if err != nil {
				t.Fatal(err)
			}
			hitOf(t, s, canonical, DefaultTenant) // the engine run
			first := hitOf(t, s, canonical, DefaultTenant)
			if first.hit == nil {
				t.Fatalf("%s traced=%v: second submission was not a cache hit", spec.Domain, traced)
			}
			b, err := first.ResponseBytes()
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := marshalDoc(renderJob(first.view())); !bytes.Equal(b, want) {
				t.Fatalf("%s traced=%v: first hit:\n%s\nwant\n%s", spec.Domain, traced, b, want)
			}
			tmpl := first.hit.tmpl.Load()
			if tmpl == nil {
				t.Fatalf("%s traced=%v: the first hit left no template", spec.Domain, traced)
			}
			base := first.view()
			for _, id := range ids {
				for _, tenant := range tenants {
					for _, at := range stamps {
						v := base
						v.ID, v.Tenant = id, tenant
						v.Submitted, v.Started, v.Finished = at, at, at
						got, ok := tmpl.fill(v)
						if !ok {
							t.Fatalf("%s traced=%v: template declined id %s tenant %q at %v", spec.Domain, traced, id, tenant, at)
						}
						want, err := marshalDoc(renderJob(v))
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s traced=%v id %s tenant %q at %v:\n%s\nwant\n%s", spec.Domain, traced, id, tenant, at, got, want)
						}
					}
				}
			}
			// A live hit with an escaped tenant, through the handle.
			j := hitOf(t, s, canonical, `q"<&>\`)
			got, err := j.ResponseBytes()
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := marshalDoc(renderJob(j.view())); !bytes.Equal(got, want) {
				t.Fatalf("%s traced=%v: templated hit:\n%s\nwant\n%s", spec.Domain, traced, got, want)
			}
		}
	}
}

// TestHitTemplateTimeoutFallback: two specs under one cache key that
// differ only in timeout_ms render different documents, so the second
// declines the first's template and is encoded by marshalDoc — and still
// matches it — while the template stays the first's.
func TestHitTemplateTimeoutFallback(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	})
	spec := JobSpec{Domain: "synthetic", Scheme: "GP-DK", P: 8, Synthetic: &SyntheticSpec{W: 800}}
	canonical, err := Canonicalize(spec, s.domains)
	if err != nil {
		t.Fatal(err)
	}
	spec.TimeoutMS = 60000
	timed, err := Canonicalize(spec, s.domains)
	if err != nil {
		t.Fatal(err)
	}
	if CacheKey(timed) != CacheKey(canonical) {
		t.Fatal("timeout_ms changed the cache key")
	}
	hitOf(t, s, canonical, DefaultTenant)
	for i, c := range []JobSpec{canonical, timed, canonical, timed} {
		j := hitOf(t, s, c, "t")
		if j.hit == nil {
			t.Fatalf("submission %d was not a cache hit", i)
		}
		if i == 1 {
			if _, ok := j.hit.tmpl.Load().fill(j.view()); ok {
				t.Fatal("a hit with another timeout_ms filled the template")
			}
		}
		got, err := j.ResponseBytes()
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := marshalDoc(renderJob(j.view())); !bytes.Equal(got, want) {
			t.Fatalf("submission %d (timeout_ms %d):\n%s\nwant\n%s", i, c.TimeoutMS, got, want)
		}
		if tm := j.hit.tmpl.Load(); tm == nil || tm.timeoutMS != 0 {
			t.Fatalf("after submission %d the template is %+v, want the first hit's (timeout_ms 0)", i, tm)
		}
	}
}
