package engine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// MultiSFA is Algorithm 5 generalized to multi-pattern matching: the
// underlying D-SFA was built from a combined DFA whose states carry a
// per-rule accept bitmask, so one parallel pass over the input reports
// every matching rule at once. The per-byte cost is unchanged — one table
// lookup per byte per thread through the same byte-class rows as the
// single-pattern engine — and the reduction is the O(p) sequential
// fold of chunk mappings, finishing with one bitmask row copy instead of
// one bool read.
//
// Matching runs on the persistent worker pool by default and recycles its
// scratch through a sync.Pool of contexts; with a caller-provided result
// buffer a steady-state MatchMask performs no heap allocation.
type MultiSFA struct {
	s       *core.DSFA
	words   int      // mask words per combined-DFA state
	masks   []uint64 // DFA-state-indexed accept bitmasks, stride words
	threads int
	tab     rows
	spawn   bool
	pool    *Pool
	id      uint64    // process-unique build id (see BuildID)
	ctxs    sync.Pool // of *multiCtx

	// stats/boundary are nil unless WithScanStats was given: stats
	// opts the engine in, boundary is the frequency table of chunk-
	// boundary states (the input Ko-style chunk speculation needs).
	// boundary is per-engine — state ids are meaningless across shards
	// — while stats may be shared by every engine of a tenant.
	stats    *obs.ScanStats
	boundary *obs.StateFreq

	// attr is the always-on per-shard cost account (compose ns, chunks,
	// bytes, candidate windows); see attribution.
	attr attribution
}

// NewMultiSFA compiles the matcher. masks holds one accept bitmask of
// `words` uint64 words per state of the combined DFA underlying s (the
// DFA whose transformation vectors s's states are): bit r is set when the
// DFA state accepts rule r.
func NewMultiSFA(s *core.DSFA, masks []uint64, words, threads int, opts ...Option) *MultiSFA {
	if threads < 1 {
		threads = 1
	}
	if len(masks) != s.D.NumStates*words {
		panic(fmt.Sprintf("engine: mask table %d != %d DFA states × %d words",
			len(masks), s.D.NumStates, words))
	}
	o := buildOpts(opts)
	id := o.buildID
	if id == 0 {
		id = buildSeq.Add(1)
	}
	m := &MultiSFA{
		s:       s,
		words:   words,
		masks:   masks,
		threads: threads,
		tab:     newRows(s.NextC, s.BC()),
		spawn:   o.spawn,
		pool:    o.pool,
		id:      id,
	}
	if o.stats != nil {
		m.stats = o.stats
		m.boundary = &obs.StateFreq{}
	}
	m.ctxs.New = func() any {
		return &multiCtx{m: m, locals: make([]int32, m.threads)}
	}
	return m
}

// multiCtx is the per-MatchMask scratch, recycled through MultiSFA.ctxs so
// concurrent calls on one engine are allocation-free and each own private
// chunk-result storage.
type multiCtx struct {
	job    jobState
	m      *MultiSFA
	text   []byte
	locals []int32
}

func (c *multiCtx) runChunk(i int) {
	lo, hi := span(len(c.text), c.m.threads, i)
	c.locals[i] = c.m.runChunk(c.text[lo:hi])
}

func (m *MultiSFA) runChunk(chunk []byte) int32 {
	return m.tab.walk(m.s.Start, chunk)
}

// finalState folds the p chunk mappings into the combined-DFA state the
// whole input reaches (lines 6–9 of Algorithm 5 with the O(p) sequential
// reduction; the bitmask row lookup replaces the accept-bit read).
func (m *MultiSFA) finalState(locals []int32) int32 {
	q := m.s.D.Start
	for _, f := range locals {
		q = core.ApplyVec(m.s.Map(f), q)
	}
	return q
}

// run walks text with p chunks and returns the final combined-DFA state.
func (m *MultiSFA) run(text []byte) int32 {
	start := time.Now()
	var q int32
	p := m.threads
	if p == 1 {
		// Degenerate case: the chunk result is an SFA state; apply its
		// mapping to the DFA start to land on the final DFA state.
		f := m.runChunk(text)
		q = core.ApplyVec(m.s.Map(f), m.s.D.Start)
	} else {
		c := m.ctxs.Get().(*multiCtx)
		c.text = text
		dispatchChunks(c, &c.job, m.pool, m.spawn, p)
		q = m.finalState(c.locals)
		c.text = nil
		m.ctxs.Put(c)
	}
	m.attr.composeNs.Add(time.Since(start).Nanoseconds())
	m.attr.chunks.Inc()
	m.attr.bytes.Add(int64(len(text)))
	return q
}

// MatchMask scans text once and writes the accept bitmask — bit r set iff
// rule r matches the whole input — into dst, which must have Words()
// capacity. It returns dst[:Words()].
func (m *MultiSFA) MatchMask(text []byte, dst []uint64) []uint64 {
	q := m.run(text)
	return append(dst[:0], m.masks[int(q)*m.words:(int(q)+1)*m.words]...)
}

// OrMask scans text sequentially on the calling goroutine and ORs the
// resulting accept bitmask into dst, which must have Words() length.
// This is the candidate-window primitive of the literal prefilter: a
// window is a short slice, so the chunk-parallel dispatch of MatchMask
// would cost more than the walk, and OR-accumulation lets overlapping
// windows of one input share a result buffer.
func (m *MultiSFA) OrMask(text []byte, dst []uint64) {
	m.attr.windows.Inc()
	m.attr.bytes.Add(int64(len(text)))
	f := m.runChunk(text)
	q := core.ApplyVec(m.s.Map(f), m.s.D.Start)
	row := m.masks[int(q)*m.words : (int(q)+1)*m.words]
	for i, w := range row {
		dst[i] |= w
	}
}

// Match implements Matcher: whole-input acceptance by any rule.
func (m *MultiSFA) Match(text []byte) bool {
	q := m.run(text)
	for _, w := range m.masks[int(q)*m.words : (int(q)+1)*m.words] {
		if w != 0 {
			return true
		}
	}
	return false
}

// Words returns the mask width in uint64 words.
func (m *MultiSFA) Words() int { return m.words }

// Masks exposes the combined-DFA-state-indexed accept bitmask table
// (stride Words()) so the rule-set codec can serialize it. The slice
// aliases internal storage and must not be modified.
func (m *MultiSFA) Masks() []uint64 { return m.masks }

// SFA exposes the combined automaton (stats reporting).
func (m *MultiSFA) SFA() *core.DSFA { return m.s }

// TableBytes returns the resident size of the engine's rows.
func (m *MultiSFA) TableBytes() int64 { return m.tab.bytes() }

// Name implements Matcher.
func (m *MultiSFA) Name() string {
	mode := ""
	if m.spawn {
		mode = "-spawn"
	}
	return fmt.Sprintf("multi-sfa-p%d%s", m.threads, mode)
}
