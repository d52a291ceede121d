package engine

import (
	"repro/internal/dfa"
	"repro/internal/nfa"
	"repro/internal/syntax"
)

// DFASequential is the paper's Algorithm 2: one state, one table lookup
// per input byte, through the same byte-class rows the parallel engines
// walk (the paper used 256 int32 entries per state).
type DFASequential struct {
	d   *dfa.DFA
	tab rows
}

// NewDFASequential compiles the matcher.
func NewDFASequential(d *dfa.DFA) *DFASequential {
	return &DFASequential{d: d, tab: newRows(d.NextC, d.BC)}
}

// Match implements Algorithm 2.
func (m *DFASequential) Match(text []byte) bool {
	return m.d.Accept[m.tab.walk(m.d.Start, text)]
}

// Name implements Matcher.
func (m *DFASequential) Name() string { return "dfa-seq" }

// NFASim wraps the bitset NFA simulation (Table II row "NFA") behind the
// Matcher interface; it is the oracle the property tests compare engines
// against.
type NFASim struct {
	sim *nfa.Simulator
}

// NewNFASim compiles an NFA simulator for the pattern tree.
func NewNFASim(root *syntax.Node) (*NFASim, error) {
	a, err := nfa.Glushkov(root)
	if err != nil {
		return nil, err
	}
	return &NFASim{sim: nfa.NewSimulator(a)}, nil
}

// Match implements Matcher.
func (m *NFASim) Match(text []byte) bool { return m.sim.Match(text) }

// Name implements Matcher.
func (m *NFASim) Name() string { return "nfa-sim" }
