package traffic

import "simdtree/internal/server"

// DRR is the node's queue, server.DRR, and TenantStat one tenant's row of
// its traffic_tenants stats.  The aliases and NewDRR stay here only for
// benchmark/, which builds its node's queue through them (ROADMAP item 4);
// every other caller uses server.NewDRR.
type (
	DRR        = server.DRR
	TenantStat = server.TenantStat
)

// NewDRR is server.NewDRR.
func NewDRR(capacity int, quantum float64) *DRR { return server.NewDRR(capacity, quantum) }
