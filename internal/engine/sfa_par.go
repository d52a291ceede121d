package engine

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// SFAParallel is the paper's contribution in executable form —
// Algorithm 5. The input is split across p threads; each thread starts
// from the *identity* SFA state and performs exactly one table lookup per
// byte (no per-state loop: the speculation was paid at construction
// time). The per-chunk results are SFA states, i.e. transformations of
// the DFA's state set, and are combined by either reduction strategy.
//
// By default matching runs on the persistent worker pool and recycles its
// scratch (chunk results, reduction buffers) through a sync.Pool of match
// contexts, so a steady-state Match creates no goroutines and performs no
// heap allocation. WithSpawn restores the seed's spawn-per-match path for
// the Fig. 10 thread-creation measurement.
type SFAParallel struct {
	s       *core.DSFA
	threads int
	red     Reduction
	tab     rows
	spawn   bool
	pool    *Pool
	ctxs    sync.Pool // of *sfaCtx

	// stats/boundary are nil unless WithScanStats was given (see the
	// MultiSFA fields of the same name).
	stats    *obs.ScanStats
	boundary *obs.StateFreq
}

// NewSFAParallel compiles the matcher for a fixed thread count and
// reduction strategy.
func NewSFAParallel(s *core.DSFA, threads int, red Reduction, opts ...Option) *SFAParallel {
	if threads < 1 {
		threads = 1
	}
	o := buildOpts(opts)
	m := &SFAParallel{
		s:       s,
		threads: threads,
		red:     red,
		tab:     newRows(s.NextC, s.BC()),
		spawn:   o.spawn,
		pool:    o.pool,
	}
	if o.stats != nil {
		m.stats = o.stats
		m.boundary = &obs.StateFreq{}
	}
	m.ctxs.New = func() any {
		return &sfaCtx{m: m, locals: make([]int32, m.threads)}
	}
	return m
}

// sfaCtx is the per-Match scratch: chunk results plus the reduction
// arena. Contexts are recycled through SFAParallel.ctxs, which is what
// makes concurrent Match calls on one engine allocation-free and safe —
// each in-flight call owns a private context.
type sfaCtx struct {
	job    jobState
	m      *SFAParallel
	text   []byte
	locals []int32
	ar     reduceArena16
}

// runChunk is lines 1–5 of Algorithm 5 for chunk i: fi ← fI, then one
// lookup per byte.
func (c *sfaCtx) runChunk(i int) {
	lo, hi := span(len(c.text), c.m.threads, i)
	c.locals[i] = c.m.runChunk(c.text[lo:hi])
}

// runChunk walks one chunk from the identity through the rows.
func (m *SFAParallel) runChunk(chunk []byte) int32 {
	return m.tab.walk(m.s.Start, chunk)
}

// Match implements Algorithm 5.
func (m *SFAParallel) Match(text []byte) bool {
	p := m.threads
	if p == 1 {
		// Degenerate case: no fork, no reduction — just the SFA walk.
		return m.s.Accept[m.runChunk(text)]
	}
	c := m.ctxs.Get().(*sfaCtx)
	c.text = text
	dispatchChunks(c, &c.job, m.pool, m.spawn, p)
	ok := m.reduce(c.locals, &c.ar)
	c.text = nil
	m.ctxs.Put(c)
	return ok
}

// reduce is lines 6–9 of Algorithm 5.
func (m *SFAParallel) reduce(locals []int32, ar *reduceArena16) bool {
	d := m.s.D
	switch m.red {
	case ReduceSequential:
		// Sfin ← I; then Sfin ← fi(Sfin) for each i — O(p) total,
		// "independent from the number of states in SFA" (Sect. V-B).
		q := d.Start
		for _, f := range locals {
			q = core.ApplyVec(m.s.Map(f), q)
		}
		return d.Accept[q]
	default:
		// ffin ← f1 ⊙ … ⊙ fp by pairwise ⊙-tree composition over the
		// arena, then Sfin ← ffin(I).
		vecs := ar.vecs(len(locals))
		for i, f := range locals {
			vecs[i] = m.s.Map(f)
		}
		fin := treeReduce16(vecs, d.NumStates, ar)
		return d.Accept[fin[d.Start]]
	}
}

// SFA exposes the underlying automaton (harness reporting).
func (m *SFAParallel) SFA() *core.DSFA { return m.s }

// TableBytes returns the resident size of the engine's rows.
func (m *SFAParallel) TableBytes() int64 { return m.tab.bytes() }

// Name implements Matcher.
func (m *SFAParallel) Name() string {
	mode := ""
	if m.spawn {
		mode = "-spawn"
	}
	return fmt.Sprintf("sfa-p%d-%s%s", m.threads, m.red, mode)
}
