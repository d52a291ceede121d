package engine

import (
	"fmt"
	"sync"

	"repro/internal/dfa"
)

// DFASpeculative is the prior-work baseline, Algorithm 3: the input is
// split across p threads and every thread simulates the transitions of
// *all* DFA states over its chunk, producing a mapping T_i: Q → Q. The
// per-byte cost is therefore Θ(|D|), which is exactly the overhead SFA
// construction moves to compile time; Figs. 6–8 are the comparison.
//
// Like SFAParallel it defaults to the persistent worker pool with pooled
// per-match scratch (the p chunk mappings and the reduction buffers);
// WithSpawn restores per-call goroutine creation.
type DFASpeculative struct {
	d       *dfa.DFA
	threads int
	red     Reduction
	tab     rows
	spawn   bool
	pool    *Pool
	ctxs    sync.Pool // of *specCtx
}

// NewDFASpeculative compiles the matcher for a fixed thread count and
// reduction strategy.
func NewDFASpeculative(d *dfa.DFA, threads int, red Reduction, opts ...Option) *DFASpeculative {
	if threads < 1 {
		threads = 1
	}
	o := buildOpts(opts)
	m := &DFASpeculative{
		d:       d,
		threads: threads,
		red:     red,
		tab:     newRows(d.NextC, d.BC),
		spawn:   o.spawn,
		pool:    o.pool,
	}
	m.ctxs.New = func() any {
		return &specCtx{m: m, maps: make([]int32, m.threads*d.NumStates)}
	}
	return m
}

// specCtx is the per-Match scratch: the p chunk mappings (flat, p × |D|)
// and the reduction arena.
type specCtx struct {
	job  jobState
	m    *DFASpeculative
	text []byte
	maps []int32
	ar   reduceArena32
}

func (c *specCtx) runChunk(i int) {
	n := c.m.d.NumStates
	lo, hi := span(len(c.text), c.m.threads, i)
	c.m.simulateChunkInto(c.maps[i*n:(i+1)*n], c.text[lo:hi])
}

// Match implements Algorithm 3.
func (m *DFASpeculative) Match(text []byte) bool {
	p := m.threads
	c := m.ctxs.Get().(*specCtx)
	c.text = text
	dispatchChunks(c, &c.job, m.pool, m.spawn, p)
	ok := m.reduce(c)
	c.text = nil
	m.ctxs.Put(c)
	return ok
}

func (m *DFASpeculative) reduce(c *specCtx) bool {
	n := m.d.NumStates
	var final int32
	switch m.red {
	case ReduceSequential:
		// Lines 9–11 (right column): thread the single start state
		// through the p mappings.
		q := m.d.Start
		for i := 0; i < m.threads; i++ {
			q = c.maps[i*n+int(q)]
		}
		final = q
	default:
		// Line 9 (left column): associative fold T1 ⊙ T2 ⊙ … ⊙ Tp.
		vecs := c.ar.vecs(m.threads)
		for i := range vecs {
			vecs[i] = c.maps[i*n : (i+1)*n]
		}
		t := treeReduce32(vecs, n, &c.ar)
		final = t[m.d.Start]
	}
	return m.d.Accept[final]
}

// simulateChunkInto computes T[q] = destination of q over the chunk, for
// all q (lines 2–7 of Algorithm 3), through the engine's rows. The loop
// runs byte-outer as the algorithm is written: per byte, the |D| row
// loads are independent of each other, so they overlap instead of
// forming the single-state walker's serial chain. T holds row offsets
// until the chunk ends.
func (m *DFASpeculative) simulateChunkInto(t []int32, chunk []byte) {
	next, classOf, nc := m.tab.next, m.tab.classOf, m.tab.classes
	for q := range t {
		t[q] = int32(uint32(q) * nc)
	}
	for _, b := range chunk {
		c := uint32(classOf[b])
		for q, o := range t {
			t[q] = int32(next[uint32(o)+c])
		}
	}
	for q, o := range t {
		t[q] = int32(uint32(o) / nc)
	}
}

// simulateChunk is simulateChunkInto with a fresh mapping (tests and the
// paper-semantics invariants use it).
func (m *DFASpeculative) simulateChunk(chunk []byte) []int32 {
	t := make([]int32, m.d.NumStates)
	m.simulateChunkInto(t, chunk)
	return t
}

// Name implements Matcher.
func (m *DFASpeculative) Name() string {
	mode := ""
	if m.spawn {
		mode = "-spawn"
	}
	return fmt.Sprintf("dfa-spec-p%d-%s%s", m.threads, m.red, mode)
}
