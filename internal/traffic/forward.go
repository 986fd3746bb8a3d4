package traffic

import "simdtree/internal/server"

// DRR is the node's queue, server.DRR, and TenantStat one tenant's row of
// its traffic_tenants stats.
type (
	DRR        = server.DRR
	TenantStat = server.TenantStat
)

// NewDRR is server.NewDRR(capacity): the node's queue grants one cost
// unit a visit, the quantum of 1 benchmark/, its one caller, passes.
func NewDRR(capacity int, _ float64) *DRR { return server.NewDRR(capacity) }

// Config is what benchmark/ passes New.  Its settings moved into
// server.Config (MaxBatch, MemLimit); the zero Config, the only value
// benchmark/ passes, equals the node's defaults.
type Config struct{}

// New returns srv, whose Handler is already its one front door: a node
// serves through a single frontend (one flight table, one admission
// memo), never through a second one stacked on it.  The queue and the
// Config are the node's own already.
func New(srv *server.Server, _ *DRR, _ Config) *server.Server { return srv }
