package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"simdtree/internal/checkpoint"
)

// Checkpoint transfer endpoints.  A fleet coordinator (internal/cluster)
// keeps a warm copy of every running job's latest spooled checkpoint by
// polling the export endpoint, and on node death ships that copy to a
// survivor through the import endpoint.  Both speak the raw SCKP bytes
// the spool holds on disk (checkpoint.ContentType), so a transferred
// checkpoint is validated by exactly the rules a spool rescan applies:
// CRC-clean, spec embedded in Meta.Extra, cache key recomputed from the
// canonical spec — never trusted from the wire.

// handleExportCheckpoint implements GET /v1/jobs/{id}/checkpoint: the
// raw bytes of the job's latest spooled checkpoint.  404 while no
// checkpoint exists (not started, first cadence tick not reached, or
// already finished and cleaned); 409 when the server runs without a
// spool.
func (s *Server) handleExportCheckpoint(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job id")
		return
	}
	if s.spool == nil {
		WriteError(w, http.StatusConflict, "server runs without a checkpoint spool")
		return
	}
	b, err := os.ReadFile(s.spool.path(j.key))
	if err != nil {
		WriteError(w, http.StatusNotFound, "no checkpoint spooled for this job")
		return
	}
	s.writeCheckpoint(w, j.key, b)
}

// writeCheckpoint answers with a spooled SCKP frame, validated end to
// end first, under the cache key it belongs to.
func (s *Server) writeCheckpoint(w http.ResponseWriter, key string, b []byte) {
	if _, err := checkpoint.Peek(b); err != nil {
		WriteError(w, http.StatusInternalServerError, fmt.Sprintf("spooled checkpoint invalid: %v", err))
		return
	}
	s.ctr.checkpointsExported.Add(1)
	w.Header().Set("Content-Type", checkpoint.ContentType)
	w.Header().Set("X-Simdtree-Cache-Key", key)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) //lint:allow errdrop response writer errors are unreportable
}

// specOf recovers the job a checkpoint belongs to from the spec JSON in its
// Meta.Extra, canonicalized exactly like a fresh submission and checked
// against the machine size the frame itself records.  Everything that
// accepts a checkpoint from outside — shard-session open, import, spool
// rescan — trusts only this.
func specOf(meta checkpoint.Meta, domains map[string]bool) (JobSpec, error) {
	var spec JobSpec
	if len(meta.Extra) == 0 || json.Unmarshal(meta.Extra, &spec) != nil {
		return JobSpec{}, errors.New("checkpoint carries no job spec in its meta block")
	}
	canonical, err := Canonicalize(spec, domains)
	if err != nil {
		return JobSpec{}, fmt.Errorf("embedded job spec: %w", err)
	}
	if canonical.P != meta.P {
		return JobSpec{}, fmt.Errorf("spec has P=%d, checkpoint has P=%d", canonical.P, meta.P)
	}
	return canonical, nil
}

// handleImport implements POST /v1/jobs/import: body is one SCKP frame.
// The job spec is recovered from the checkpoint's Meta.Extra and
// canonicalized exactly like a fresh submission, so the job resumes
// under the same cache key it carried on the dead node and — by the
// determinism contract — completes to the byte-identical result.  The
// job is X-Tenant's, as it was on the dead node, so its own tenant can
// still cancel it.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantFrom(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, meta, err := checkpoint.ReadFrame(http.MaxBytesReader(w, r.Body, checkpoint.MaxFrameSize))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad checkpoint frame: %v", err))
		return
	}
	canonical, err := specOf(meta, s.domains)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := CacheKey(canonical)

	now := time.Now()
	// The completed result may already be cached here (the job finished
	// elsewhere, or an identical spec ran locally); serve it instead of
	// re-simulating the tail.
	if j, ok := s.hitJob(canonical, key, tenant, now); ok {
		WriteJSON(w, http.StatusOK, renderJob(j.view()))
		return
	}
	j := s.newJob(canonical, key, tenant, body, now)

	// Persist the imported checkpoint before accepting the job, so a
	// crash of *this* node between import and the first periodic
	// checkpoint still leaves the work recoverable.
	if s.spool != nil {
		if err := s.spool.write(key, body); err != nil {
			j.run.cancel(errCancelRequested)
			WriteError(w, http.StatusInternalServerError, fmt.Sprintf("spool imported checkpoint: %v", err))
			return
		}
	}
	if rf := s.enqueue(j, false); rf != nil {
		WriteError(w, rf.Code, rf.Message)
		return
	}
	s.ctr.jobsImported.Add(1)
	WriteJSON(w, http.StatusAccepted, renderJob(j.view()))
}
