#!/bin/sh
# The "written once" gates: each rule names the one place a thing may be
# spelled and greps every other non-test Go file for it.  One table, run by
# "make discipline" (part of "make lint") and by CI.
#
#   scripts/discipline.sh            check the tree (run from the repo root)
#   scripts/discipline.sh selftest   plant a violation of every pattern in a
#                                    scratch repository and see its rule fire
set -eu

# rule NAME WANT MESSAGE GIT-GREP-ARGS...: the lines the patterns match in
# the given paths must number exactly WANT ({n} in MESSAGE is the number
# found).  Every rule runs; failed counts the ones that did not hold.  With
# $only set, just the rule of that ordinal runs.
failed=0 ordinal=0 only=
rule() {
	name=$1 want=$2 msg=$3
	shift 3
	ordinal=$((ordinal + 1))
	[ -z "$only" ] || [ "$only" -eq "$ordinal" ] || return 0
	hits=$(git grep --untracked -n "$@" || true)
	n=$(printf '%s' "$hits" | grep -c . || true)
	[ "$n" -ne "$want" ] || return 0
	[ "$want" -ne 0 ] || printf '%s\n' "$hits"
	case $msg in *'{n}'*) msg="${msg%%'{n}'*}$n${msg#*'{n}'}" ;; esac
	echo "$name: $msg" >&2
	failed=$((failed + 1))
}

# The table.  Each row says the rule it enforces, the commit that added it
# and what its patterns retired there ("git log -S" on a pattern lists the
# commits that changed its count).  Every commit since a row was added passes
# it, so none is on record as catching a later change; where writing the one
# copy found a bug, the row names it.
#
# frame-discipline — one frame codec (DESIGN.md, "Frame discipline"): outside
# internal/wire no non-test file checksums a frame or decodes a varint for
# itself.  Added in 9d924ee, which retired the three hand-rolled
# magic+uvarint+CRC codecs (SCKP, SSTL, SSPL).
#
# api-discipline — one wire contract (DESIGN.md section 9, "Wire contract"):
# outside internal/server no non-test file decodes a request body strictly,
# spells the {"error": ...} body (as a map literal or as an escaped string)
# or frames an SSE event for itself.  (The coordinator's SSE proxy copies a
# node's bytes and frames nothing.)  Added in 4e77f7c, which retired the
# coordinator's and the traffic layer's own decoders, error maps and SSE
# frames.  The escaped pattern came in 012c118, which replaced a
# hand-spelled error body in the traffic frontend's render fallback that the
# map pattern had missed.
#
# schedule-discipline — one control loop (DESIGN.md section 3, "The
# schedule"): outside internal/simd no non-test file evaluates a trigger or
# books a cycle or a phase into a trace for itself — whoever hosts PEs
# implements simd.Lanes and simd.Schedule runs the loop.  (benchmark/'s
# decorators only forward.)  Added in 4e667c6, which retired steal.Driver's
# copy of the loop and fixed a bug both copies had: a goal inside the
# initial distribution ran one cycle too many.
#
# shard-discipline — one session protocol (DESIGN.md section 15, "Session
# protocol"): the shard-session calls are the shardOp table in
# internal/server/shard.go and nothing else spells a session route;
# internal/steal stays transport-free; and under internal/ there is one
# bounded outbound call, server.RoundTrip, which a node driving its peers'
# sessions and the coordinator asking a node anything both go through (the
# coordinator's SSE proxy's stream.Do, which must not buffer, is the
# documented other).  The first two rows were added in 82221fa, which
# retired internal/steal/http.go and fixed two bugs of the split
# client/server pair: an empty transfer body answered 200 after reordering a
# stack, and a client read limit below the server's.  The last two replaced
# its row counting the coordinator's one client.Do in 722fb16, when the node
# took over driving the shards.
#
# owner-discipline — one owner per job (DESIGN.md section 15, "Lifecycle
# and recovery"): a stolen job's shards are driven by the node that holds
# the job, whose worker runs it distributed as it ran it alone, so outside
# internal/server no non-test file builds a steal.Driver.  (benchmark/'s
# traced pass drives LocalShards of its own.)  Added in 722fb16, which
# retired the coordinator's driver and its second job record.
#
# match-discipline — one setup step (DESIGN.md section 16, "The
# load-balancing phase costs what it moves"): the matchers read ranks
# straight off the flag words, and no non-test file brings back a P-long
# rank array or the enumerate-then-rendezvous pass over one (their test-only
# form is scan's oracle_test.go).  Added in 334879f, which moved the rank
# arrays and the rendezvous pass to that oracle.
#
# sync-discipline — owned state, typed atomics (DESIGN.md section 11):
# no non-test file calls a package-level sync/atomic function (an object
# touched that way can also be read plainly; atomic.Int64 and friends
# cannot) or keeps a sync.Pool (pool contents depend on the scheduler;
# scratch is owned by its machine, encoder or manager).  Added in 9f400f6 in
# place of the atomicmix and poolreset analyzers; wire's buffer pool had
# gone in 9d924ee.
#
# sse-discipline — two event-stream producers (DESIGN.md section 14): the
# text/event-stream header is set by server.StreamEvents, which flushes
# every frame and returns when the subscriber leaves, and by the
# coordinator's proxy of it, and nowhere else.  Added in 9f400f6 in place of
# the sseflush analyzer; 4e77f7c had moved the producers to these two.
#
# admit-discipline — one front door (DESIGN.md section 14, "Single-flight
# collapsing"): a node and the coordinator both admit through the frontend
# in internal/server/frontend.go, so under internal/ no other non-test file
# marks a collapsed answer or registers the submit or the batch route.
# Added in 45833c6, which retired the coordinator's own batch handler and
# collapse header; the submit route's pattern came when the frontend moved
# into internal/server, retiring the bare node's second POST /v1/jobs
# handler (no collapse, memo, batch, estimate or memory limit).
#
# metrics-discipline — one metrics table (DESIGN.md section 9, "/metrics"):
# a node's and the coordinator's /metrics keys are spelled in their
# Metrics() maps, which the frontend (internal/server/frontend.go)
# extends, so under internal/ one
# non-test field of any type is tagged json:"..._total": server.TenantStat.Served, a
# per-tenant field nested in the frontend's traffic_tenants.  A second is a
# counter document growing back beside Metrics().  (A trace's samples_total
# and phases_total, lengths rather than counters, are excepted by name.)
# Added in 3fc3d5b, which retired the node's and the coordinator's counter
# structs.
#
# progress-discipline — one progress record (DESIGN.md section 14, "SSE progress
# streams"): simd.ProgressInfo reaches the event stream through one builder,
# (*jobRun).progress, the engine's Progress hook on a single-node run and the
# steal driver's on a distributed one, so under internal/ one non-test line
# spells a progress event's type.  A second is an event builder forking the
# field list.  Added in 16518c4, which retired the distributed run's builder.
rules() {
	rule frame-discipline 0 'decode and checksum frames through internal/wire (wire.Open / wire.Reader)' \
		-e '"hash/crc32"' -e 'binary\.Uvarint(' -- '*.go' ':!*_test.go' ':!internal/wire/'
	rule api-discipline 0 'decode, answer and stream through internal/server/wire.go (WriteError, StreamEvents; the frontend decodes specs)' \
		-e 'DisallowUnknownFields(' -e 'map\[string\]string{"error"' -e '{\\"error\\"' -e 'event: %s' -- '*.go' ':!*_test.go' ':!internal/server/'
	rule schedule-discipline 0 'run the loop through simd.Schedule (implement simd.Lanes)' \
		-e '\.ShouldBalance(' -e '\.RecordCycle(' -e '\.RecordPhase(' -- '*.go' ':!*_test.go' ':!internal/simd/' ':!benchmark/'
	rule shard-discipline 0 'session routes are spelled in internal/server/shard.go only (server.ShardClient)' \
		-e '/v1/steal/sessions' -- 'internal/*.go' ':!*_test.go' ':!internal/server/'
	rule shard-discipline 0 'internal/steal is transport-free; HTTP lives in internal/server' \
		-e '"net/http"' -- 'internal/steal/*.go' ':!*_test.go'
	rule shard-discipline 0 'outside internal/server no non-test file under internal/ calls client.Do(: ask a node through server.RoundTrip' \
		-e 'client\.Do(' -- 'internal/*.go' ':!*_test.go' ':!internal/server/'
	rule shard-discipline 1 'internal/server calls client.Do( {n} times, want exactly once (server.RoundTrip, the one bounded outbound call)' \
		-e 'client\.Do(' -- 'internal/server/*.go' ':!*_test.go'
	rule match-discipline 0 'match on the flag words (match.MatchBits); the rank arrays are a test oracle' \
		-e 'busyRanks' -e 'idleRanks' -e 'RendezvousInto' -e 'EnumerateBits' -- '*.go' ':!*_test.go'
	rule sync-discipline 0 'use typed atomics (atomic.Int64, atomic.Bool, ...) and owned scratch, not package-level sync/atomic calls or sync.Pool' \
		-E -e 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)[A-Za-z0-9]*\(' -e 'sync\.Pool' -- '*.go' ':!*_test.go'
	rule sse-discipline 2 'text/event-stream is set in {n} places, want 2 (server.StreamEvents, the coordinator proxy in internal/cluster/traffic.go): stream through server.StreamEvents' \
		-e 'text/event-stream' -- '*.go' ':!*_test.go'
	rule admit-discipline 0 'admit through the frontend (server.Handler, server.NewFrontend over a SubmitCanonical): submit, collapse, batch and cache-hit answers are written once, in internal/server/frontend.go' \
		-e 'X-Collapsed' -e 'jobs:batch"' -e '"POST /v1/jobs"' -- 'internal/*.go' ':!*_test.go' ':!internal/server/frontend.go'
	rule metrics-discipline 1 'under internal/ {n} fields are tagged json:"..._total", want 1 (server.TenantStat.Served): name a /metrics key in Server.Metrics or Coordinator.Metrics' \
		-E -e 'json:"[a-z0-9_]*_total[",]' --and --not -e 'json:"(samples|phases)_total"' -- 'internal/*.go' ':!*_test.go'
	rule owner-discipline 0 'steal.NewDriver( is called outside internal/server: the node that holds a job drives its shards (server.distribute)' \
		-e 'steal\.NewDriver(' -- '*.go' ':!*_test.go' ':!internal/server/' ':!benchmark/'
	rule progress-discipline 1 'under internal/ {n} lines build a progress event, want 1 ((*jobRun).progress): hand the engine'"'"'s simd.ProgressInfo to it' \
		-E -e 'Type: *(server\.)?EventProgress' -- 'internal/*.go' ':!*_test.go'
}

# plant ORDINAL FIRES PATH LINE...: in a fresh scratch repository holding
# only PATH with the given lines, rule ORDINAL must fire (FIRES = 1) or
# hold (FIRES = 0, an allowed path or a test file).  A line "@FILE" sends
# the lines after it to FILE instead.
plant() {
	want=$1 fires=$2 path=$3
	shift 3
	dir=$(mktemp -d) file=$path
	for line; do
		case $line in @*) file=${line#@} && continue ;; esac
		mkdir -p "$dir/$(dirname "$file")"
		printf '%s\n' "$line" >>"$dir/$file"
	done
	git -C "$dir" init -q
	got=$(cd "$dir" && only=$want && failed=0 && ordinal=0 && rules >/dev/null 2>&1 && echo "$failed")
	rm -rf "$dir"
	[ "$got" -eq "$fires" ] && return 0
	echo "discipline selftest: rule $want with $path holding '$1': fired $got times, want $fires" >&2
	failed=$((failed + 1))
}

if [ "${1:-}" = selftest ]; then
	plant 1 1 cmd/x/zz.go 'import "hash/crc32"'
	plant 1 1 internal/spill/zz.go 'v, n := binary.Uvarint(b)'
	plant 1 0 internal/wire/zz.go 'import "hash/crc32"'
	plant 2 1 internal/cluster/zz.go 'dec.DisallowUnknownFields()'
	plant 2 1 internal/traffic/zz.go 'WriteJSON(w, 400, map[string]string{"error": msg})'
	plant 2 1 internal/traffic/zz.go 'b = []byte("{\"error\":\"failed to render job\"}\n")'
	plant 2 1 cmd/x/zz.go 'fmt.Fprintf(w, "event: %s\n", kind)'
	plant 2 0 internal/server/zz.go 'dec.DisallowUnknownFields()'
	plant 2 0 internal/cluster/zz_test.go 'body := "{\"error\":\"x\"}"'
	plant 3 1 internal/steal/zz.go 'if trig.ShouldBalance(st) {'
	plant 3 1 internal/steal/zz.go 'tr.RecordCycle(c)'
	plant 3 1 cmd/x/zz.go 'tr.RecordPhase(p)'
	plant 3 0 benchmark/zz.go 'return t.inner.ShouldBalance(st)'
	plant 4 1 internal/cluster/zz.go 'url := base + "/v1/steal/sessions"'
	plant 4 0 internal/server/zz.go 'const sessionsPath = "/v1/steal/sessions"'
	plant 5 1 internal/steal/zz.go 'import "net/http"'
	plant 5 0 internal/steal/zz_test.go 'import "net/http"'
	plant 6 1 internal/cluster/zz.go 'resp, err := c.client.Do(req)'
	plant 6 0 internal/server/zz.go 'resp, err := client.Do(req)'
	plant 6 0 internal/cluster/zz_test.go 'resp, err := http.DefaultClient.Do(req)'
	plant 7 1 internal/server/zz.go 'resp, err := client.Do(req)' 'resp, err = client.Do(req)'
	plant 7 1 internal/server/zz.go 'no outbound call at all'
	plant 7 0 internal/server/zz.go 'resp, err := client.Do(req)'
	plant 8 1 internal/match/zz.go 'a.busyRanks = make([]int, n)'
	plant 8 1 internal/match/zz.go 'a.idleRanks = a.idleRanks[:n]'
	plant 8 1 internal/simd/zz.go 'pairs, inv = scan.RendezvousInto(pairs[:0], inv, busy, idle)'
	plant 8 1 internal/scan/zz.go 'func EnumerateBitsFromInto(ranks []int, b Bits, start, n int) int {'
	plant 8 0 internal/scan/zz_test.go 'func EnumerateBitsInto(ranks []int, b Bits, n int) int {'
	plant 9 1 internal/server/zz.go 'atomic.AddInt64(&s.jobs, 1)'
	plant 9 1 internal/simd/zz.go 'w := atomic.LoadUint64(&words[i])'
	plant 9 1 internal/cluster/zz.go 'if atomic.CompareAndSwapInt32(&n.state, 0, 1) {'
	plant 9 1 internal/wire/zz.go 'var bufs = sync.Pool{New: func() any { return new([]byte) }}'
	plant 9 0 internal/server/zz.go 'var jobs atomic.Int64' 'jobs.Add(1)'
	plant 9 0 internal/server/zz_test.go 'atomic.AddInt64(&hits, 1)'
	set -- 'w.Header().Set("Content-Type", "text/event-stream")' 'w.Header().Set("Content-Type", "text/event-stream")'
	plant 10 0 internal/server/zz.go "$@"
	plant 10 1 internal/server/zz.go "$@" '@internal/traffic/zz.go' 'w.Header().Set("Content-Type", "text/event-stream")'
	plant 10 1 internal/cluster/zz.go 'w.Header().Set("Content-Type", "text/event-stream")'
	plant 10 0 internal/server/zz.go "$@" '@internal/traffic/zz_test.go' 'if ct != "text/event-stream" {'
	plant 11 1 internal/cluster/zz.go 'w.Header().Set("X-Collapsed", "1")'
	plant 11 1 internal/server/zz.go 'mux.HandleFunc("POST /v1/jobs:batch", s.handleBatch)'
	plant 11 1 internal/traffic/zz.go 'mux.HandleFunc("POST /v1/jobs:batch", f.handleBatch)'
	plant 11 1 internal/server/server.go 'mux.HandleFunc("POST /v1/jobs", s.handleSubmit)'
	plant 11 0 internal/server/frontend.go 'mux.HandleFunc("POST /v1/jobs", f.handleSubmit)' 'mux.HandleFunc("POST /v1/jobs:batch", f.handleBatch)'
	plant 11 0 internal/server/zz_test.go 'mux.HandleFunc("POST /v1/jobs", stub)'
	plant 11 0 internal/server/zz.go 'mux.HandleFunc("POST /v1/jobs/import", s.handleImport)'
	plant 11 0 internal/cluster/zz_test.go 'if resp.Header.Get("X-Collapsed") != "1" {'
	plant 11 0 cmd/x/zz.go 'collapsed := resp.Header.Get("X-Collapsed") != ""'
	plant 11 0 internal/server/zz.go '// BatchRequest is the POST /v1/jobs:batch body.'
	set -- 'Served  int64 `json:"served_total"`'
	plant 12 0 internal/server/drr.go "$@"
	plant 12 1 internal/server/drr.go "$@" '@internal/server/zz.go' 'JobsDone            int64 `json:"jobs_done_total"`'
	plant 12 1 internal/server/drr.go "$@" '@internal/cluster/zz.go' 'JobsRouted int64 `json:"jobs_routed_total"`'
	plant 12 1 internal/server/drr.go 'Served  int64 `json:"served"`'
	plant 12 0 internal/server/drr.go "$@" '@internal/server/zz_test.go' 'JobsDone int64 `json:"jobs_done_total"`'
	plant 12 0 internal/server/drr.go "$@" '@internal/server/zz.go' 'SamplesTotal int `json:"samples_total"`' 'PhasesTotal int `json:"phases_total"`'
	plant 12 1 internal/server/drr.go "$@" '@internal/server/zz.go' 'JobsDone int `json:"jobs_done_total"`'
	plant 12 1 internal/server/drr.go "$@" '@internal/cluster/zz.go' 'Probes uint64 `json:"probes_total,omitempty"`'
	plant 13 1 internal/cluster/zz.go 'drv, err := steal.NewDriver(cfg, raw, shards)'
	plant 13 0 internal/server/zz.go 'drv, err := steal.NewDriver(cfg, raw, shards)'
	plant 13 0 internal/cluster/zz_test.go 'drv, err := steal.NewDriver(cfg, raw, shards)'
	plant 13 0 benchmark/zz.go 'drv, err := steal.NewDriver(steal.Config{Key: "simdmark"}, raw, shards)'
	set -- 'ev := JobEvent{Type: EventProgress, Active: pi.Active}.withStats(pi.Stats)'
	plant 14 0 internal/server/zz.go "$@"
	plant 14 1 internal/server/zz.go 'no progress builder at all'
	plant 14 1 internal/server/zz.go "$@" 'j.events.Append(JobEvent{Type:  EventProgress, Cycle: pi.Stats.Cycles})'
	plant 14 1 internal/server/zz.go "$@" '@internal/cluster/zz.go' 'ev := server.JobEvent{Type: server.EventProgress, Active: a}'
	plant 14 0 internal/server/zz.go "$@" '@internal/server/zz_test.go' 'want := JobEvent{Type: EventProgress, Cycle: 1}'
	plant 14 0 internal/server/zz.go "$@" '@cmd/x/zz.go' 'ev := server.JobEvent{Type: server.EventProgress}'
else
	rules
fi
[ "$failed" -eq 0 ]
