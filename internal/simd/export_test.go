package simd

// PoolShardMin lets the external tests size a run around the pool cut-over.
const PoolShardMin = poolShardMin
