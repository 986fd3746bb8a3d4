// Package traffic holds forwards kept for benchmark/, which compiles
// against them, until ROADMAP item 4 deletes them.  The traffic frontend
// (collapse, batch, estimate, the admission memo) is every node's own
// front door, internal/server's frontend.go; the node's queue is
// server.DRR.
package traffic
