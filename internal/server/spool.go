package server

import (
	"os"
	"path/filepath"
	"strings"
	"time"

	"simdtree/internal/checkpoint"
)

// spoolExt is the suffix of persisted checkpoints; anything else in the
// spool directory is ignored (stale temp files are cleaned at open).
const spoolExt = ".ckpt"

// spool is the crash-recovery checkpoint directory.  When Config.Spool
// names one, every running job periodically persists a checkpoint there
// as <cache-key>.ckpt, with the canonical spec JSON embedded in the
// checkpoint's Meta.Extra.  A job that reaches a terminal state deletes
// its file, except when shutdown cancelled it — that file survives so a
// restarted server can rescan the directory, re-queue the job and resume
// from the snapshot.  By the determinism contract the completed result
// is byte-identical to an uninterrupted run's, so it feeds the cache
// exactly as if the first process had never died.
type spool struct {
	dir string
}

// openSpool ensures the directory exists and sweeps temp files a crashed
// writer may have left behind.
func openSpool(dir string) (*spool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), ".tmp-") {
			_ = os.Remove(filepath.Join(dir, e.Name())) //lint:allow errdrop a stale temp file is harmless
		}
	}
	return &spool{dir: dir}, nil
}

func (sp *spool) path(key string) string {
	return filepath.Join(sp.dir, key+spoolExt)
}

// spillDir names the job's spill-segment directory, kept next to its
// checkpoint so a memory-bounded job's disk footprint lives in one place.
// The directory holds cache only — rescan ignores it, and the runner
// clears it when the run ends.
func (sp *spool) spillDir(key string) string {
	return filepath.Join(sp.dir, key+".spill")
}

// write atomically replaces the job's spool file (checkpoint.WriteFile).
// A crash mid-write leaves the previous checkpoint intact and a ".tmp-*"
// file that openSpool sweeps; a torn rename is caught by the format's CRC
// at rescan.
func (sp *spool) write(key string, b []byte) error {
	return checkpoint.WriteFile(sp.path(key), b)
}

// read returns the job's spooled checkpoint bytes.
func (sp *spool) read(key string) ([]byte, error) {
	return os.ReadFile(sp.path(key))
}

// remove deletes the job's spool file, if any.
func (sp *spool) remove(key string) {
	_ = os.Remove(sp.path(key)) //lint:allow errdrop a missing file is the desired state
}

// spooledJob is one resumable checkpoint recovered at startup.
type spooledJob struct {
	key  string
	spec JobSpec
	data []byte
}

// rescan returns every valid checkpoint in the spool, in the
// deterministic directory order.  A file is valid when its CRC and
// header parse (checkpoint.Peek), its embedded spec canonicalizes
// against the server's domain set at the frame's own P (specOf), and the
// spec's cache key matches the filename — the binding that stops a renamed
// or stale file from resurrecting the wrong job.  Invalid files are
// skipped, never deleted: an operator may want to inspect them.
func (sp *spool) rescan(domains map[string]bool) []spooledJob {
	entries, err := os.ReadDir(sp.dir)
	if err != nil {
		return nil
	}
	var out []spooledJob
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, spoolExt) {
			continue
		}
		key := strings.TrimSuffix(name, spoolExt)
		b, err := os.ReadFile(filepath.Join(sp.dir, name))
		if err != nil {
			continue
		}
		meta, err := checkpoint.Peek(b)
		if err != nil {
			continue
		}
		canonical, err := specOf(meta, domains)
		if err != nil || CacheKey(canonical) != key {
			continue
		}
		out = append(out, spooledJob{key: key, spec: canonical, data: b})
	}
	return out
}

// resumeSpooled re-queues the jobs a previous process left checkpointed
// in the spool.  Each gets a fresh id and carries its checkpoint bytes;
// the runner restores the snapshot and reports the resumed-from cycle.
// A resumed job takes no quota slot.  Checkpoints that do not fit the
// queue stay on disk for the next restart: a refused job never runs, so
// nothing removes its file.
func (s *Server) resumeSpooled() {
	for _, sj := range s.spool.rescan(s.domains) {
		s.enqueue(s.newJob(sj.spec, sj.key, DefaultTenant, sj.data, time.Now()), false)
	}
}
