// Package traffic is the service's traffic-management layer, wrapped
// around internal/server the way the paper's load-balancing machinery is
// wrapped around raw node expansion: the search engine stays oblivious
// while an outer mechanism decides who runs, when, and how often the same
// work is paid for.
//
// It contributes four things, each grounded in a property the lower
// layers already guarantee:
//
//   - Single-flight collapsing.  The engine is deterministic and results
//     are cached under the canonical-spec SHA-256 key, so N identical
//     in-flight submissions need exactly one run.  The flight table keys
//     on the cache key and fans the one rendered response out to every
//     subscriber, byte for byte.  A Frontend admits through a backend's
//     SubmitCanonical: a node's *server.Server, or the fleet coordinator
//     (internal/cluster), whose front door is a Frontend too, so collapse,
//     batch and cache-hit answers are written once, here.
//
//   - Per-tenant fair scheduling.  The node's one queue, server.DRR, is a
//     deficit-round-robin scheduler over tenants; the frontend reports
//     its per-tenant stats as traffic_tenants.  The rotation invariant
//     is the paper's GP pointer rule (§4.1) lifted one level: no
//     backlogged tenant is served twice before every other backlogged
//     tenant is served once.
//
//   - Batch admission.  POST /v1/jobs:batch admits up to MaxBatch specs
//     with per-item verdicts, each through the single-submission path.
//
//   - Cost-weighted admission.  POST /v1/estimate prices a spec with the
//     paper's efficiency model (equations 12/15/18) before anything runs;
//     the same estimate weights the DRR dequeue so a tenant's quantum
//     buys predicted node expansions, not request counts.
package traffic
