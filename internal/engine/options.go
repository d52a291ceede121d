package engine

import "repro/internal/obs"

// engineOpts collects the construction options shared by the parallel
// engines.
type engineOpts struct {
	spawn   bool
	pool    *Pool
	buildID uint64
	stats   *obs.ScanStats
}

// Option configures a parallel engine at construction.
type Option func(*engineOpts)

// WithSpawn restores the seed behaviour of creating fresh goroutines on
// every Match. The paper's Fig. 10 measurement explicitly includes thread
// creation ("the execution times of the parallel computation includes the
// creation of threads and the reduction"), so the spawning path stays
// available for that reproduction; everything else should prefer the
// default pooled path.
func WithSpawn() Option { return func(o *engineOpts) { o.spawn = true } }

// WithPool runs matches on the given persistent pool instead of the
// process-wide DefaultPool.
func WithPool(p *Pool) Option { return func(o *engineOpts) { o.pool = p } }

// WithBuildID overrides the engine's construction id (normally a small
// process-sequential number issued by buildSeq). Snapshot warm loads use
// it to adopt the persisted content-derived id — which always carries the
// top bit, so adopted ids can never collide with sequential ones — making
// "this automaton was decoded from disk, not rebuilt" observable through
// ShardInfo.BuildID across process restarts. 0 keeps the sequential id.
func WithBuildID(id uint64) Option { return func(o *engineOpts) { o.buildID = id } }

// WithScanStats turns on the eager engine's streaming instrumentation:
// each ComposeChunk records the chunk-boundary DFA state into a
// frequency table (ShardInfo.HotStates — the concentration measurement
// Ko-style speculative chunk matching needs). Chunk latency and size
// aggregates are recorded by the caller that owns the chunking (multi's
// SetStream), not here, so they count stream writes rather than
// per-shard engine visits. Recording uses only lock-free obs
// primitives, so the streaming hot path stays at 0 allocs/op with
// stats enabled (benchjson-gated). Nil disables instrumentation (the
// default).
func WithScanStats(st *obs.ScanStats) Option {
	return func(o *engineOpts) { o.stats = st }
}

func buildOpts(opts []Option) engineOpts {
	var o engineOpts
	for _, f := range opts {
		f(&o)
	}
	if o.pool == nil {
		o.pool = DefaultPool()
	}
	return o
}
