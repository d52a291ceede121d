package engine

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// NSFAParallel is Algorithm 5 over an N-SFA. Each thread performs one
// table lookup per byte, exactly as the D-SFA engine; the difference is
// the reduction: composing two N-SFA mappings is a boolean matrix product
// (O(|N|³), Table II), and the sequential reduction steps a state *set*
// through the p correspondences (O(|N|·p) worst case).
//
// Matching defaults to the persistent worker pool with pooled scratch
// (chunk results, the frontier bitsets, the matrix-reduction arena);
// WithSpawn restores per-call goroutine creation.
type NSFAParallel struct {
	s       *core.NSFA
	threads int
	red     Reduction
	tab     rows
	spawn   bool
	pool    *Pool
	ctxs    sync.Pool // of *nsfaCtx
}

// NewNSFAParallel compiles the matcher.
func NewNSFAParallel(s *core.NSFA, threads int, red Reduction, opts ...Option) *NSFAParallel {
	if threads < 1 {
		threads = 1
	}
	o := buildOpts(opts)
	m := &NSFAParallel{
		s:       s,
		threads: threads,
		red:     red,
		tab:     newRows(s.NextC, s.BC()),
		spawn:   o.spawn,
		pool:    o.pool,
	}
	m.ctxs.New = func() any {
		words := s.Words()
		return &nsfaCtx{
			m:        m,
			locals:   make([]int32, m.threads),
			frontier: make([]uint64, words),
			scratch:  make([]uint64, words),
		}
	}
	return m
}

// nsfaCtx is the per-Match scratch of the N-SFA engine.
type nsfaCtx struct {
	job      jobState
	m        *NSFAParallel
	text     []byte
	locals   []int32
	frontier []uint64
	scratch  []uint64
	ar       reduceArenaMat
}

func (c *nsfaCtx) runChunk(i int) {
	lo, hi := span(len(c.text), c.m.threads, i)
	c.locals[i] = c.m.tab.walk(c.m.s.Start, c.text[lo:hi])
}

// Match implements Algorithm 5 for the general (NFA-derived) case.
func (m *NSFAParallel) Match(text []byte) bool {
	p := m.threads
	c := m.ctxs.Get().(*nsfaCtx)
	c.text = text
	dispatchChunks(c, &c.job, m.pool, m.spawn, p)
	ok := m.reduce(c)
	c.text = nil
	m.ctxs.Put(c)
	return ok
}

func (m *NSFAParallel) reduce(c *nsfaCtx) bool {
	a := m.s.A
	n, words := a.NumStates, m.s.Words()
	switch m.red {
	case ReduceSequential:
		// Sfin ← I; Sfin ← ⋃_{q∈Sfin} fi(q): step a frontier bitset
		// through each correspondence.
		frontier, scratch := c.frontier, c.scratch
		for i := range frontier {
			frontier[i] = 0
		}
		for _, q0 := range a.Start {
			frontier[q0>>6] |= 1 << (q0 & 63)
		}
		for _, f := range c.locals {
			mat := m.s.Mat(f)
			for i := range scratch {
				scratch[i] = 0
			}
			for q := 0; q < n; q++ {
				if frontier[q>>6]&(1<<(q&63)) != 0 {
					row := mat[q*words : (q+1)*words]
					for i := range scratch {
						scratch[i] |= row[i]
					}
				}
			}
			frontier, scratch = scratch, frontier
		}
		c.frontier, c.scratch = frontier, scratch
		return a.AcceptsSet(frontier)
	default:
		// Tree reduction: boolean matrix products over the arena.
		mats := c.ar.mats(len(c.locals))
		for i, f := range c.locals {
			mats[i] = m.s.Mat(f)
		}
		fin := treeReduceMat(mats, n, words, &c.ar)
		for _, q0 := range a.Start {
			if a.AcceptsSet(fin[int(q0)*words : (int(q0)+1)*words]) {
				return true
			}
		}
		return false
	}
}

// Name implements Matcher.
func (m *NSFAParallel) Name() string {
	mode := ""
	if m.spawn {
		mode = "-spawn"
	}
	return fmt.Sprintf("nsfa-p%d-%s%s", m.threads, m.red, mode)
}
