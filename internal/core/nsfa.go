package core

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/nfa"
)

// NSFA is a simultaneous finite automaton constructed from an ε-free NFA
// (the paper's N-SFA). Each state is a correspondence f: Q → P(Q), stored
// as an |Q|×|Q| boolean matrix with bitset rows; row q is the set f(q).
//
// The ⊙ reduction of N-SFA mappings is boolean matrix multiplication,
// which is why Table II lists O(|N|³ log p) for its parallel reduction.
type NSFA struct {
	A         *nfa.NFA
	NumStates int
	Start     int32
	Accept    []bool
	NextC     []int32
	EmptyID   int32 // id of the all-empty correspondence, or -1

	t     *nfa.Table
	n     int      // rows per matrix == A.NumStates
	words int      // words per row
	mats  []uint64 // flat NumStates × n × words matrices
}

// BuildNSFA runs the correspondence construction (Algorithm 4, general
// case: fnext(q) = ⋃_{q'∈f(q)} δ(q', σ)) on an ε-free NFA. cap > 0 bounds
// the number of N-SFA states.
func BuildNSFA(a *nfa.NFA, cap int) (*NSFA, error) {
	if a.HasEps() {
		return nil, errors.New("core: N-SFA construction requires an ε-free NFA (use Glushkov)")
	}
	t := nfa.Compile(a)
	n := a.NumStates
	words := t.Words
	nc := t.BC.Count
	mw := n * words // words per matrix

	s := &NSFA{A: a, t: t, n: n, words: words, EmptyID: -1}

	ids := make(map[uint64][]int32)
	intern := func(mat []uint64) (int32, bool, error) {
		h := hashWords(mat)
		for _, id := range ids[h] {
			if eqWords(s.matOf(id), mat) {
				return id, false, nil
			}
		}
		if cap > 0 && s.NumStates >= cap {
			return 0, false, fmt.Errorf("%w (cap %d)", ErrTooManyStates, cap)
		}
		id := int32(s.NumStates)
		s.NumStates++
		s.mats = append(s.mats, mat...)
		ids[h] = append(ids[h], id)
		s.NextC = append(s.NextC, make([]int32, nc)...)
		return id, true, nil
	}

	// Identity correspondence: f(q) = {q}.
	identity := make([]uint64, mw)
	for q := 0; q < n; q++ {
		identity[q*words+(q>>6)] |= 1 << (q & 63)
	}
	start, _, err := intern(identity)
	if err != nil {
		return nil, err
	}
	s.Start = start

	queue := []int32{start}
	next := make([]uint64, mw)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for c := 0; c < nc; c++ {
			f := s.matOf(id)
			for i := range next {
				next[i] = 0
			}
			for q := 0; q < n; q++ {
				t.Step(next[q*words:(q+1)*words], f[q*words:(q+1)*words], c)
			}
			to, fresh, err := intern(next)
			if err != nil {
				return nil, err
			}
			s.NextC[int(id)*nc+c] = to
			if fresh {
				queue = append(queue, to)
			}
		}
	}

	s.Accept = make([]bool, s.NumStates)
	for id := int32(0); id < int32(s.NumStates); id++ {
		mat := s.matOf(id)
		empty := true
		for _, w := range mat {
			if w != 0 {
				empty = false
				break
			}
		}
		if empty {
			s.EmptyID = id
		}
		for _, q0 := range a.Start {
			if a.AcceptsSet(mat[int(q0)*words : (int(q0)+1)*words]) {
				s.Accept[id] = true
				break
			}
		}
	}
	return s, nil
}

func (s *NSFA) matOf(id int32) []uint64 {
	mw := s.n * s.words
	return s.mats[int(id)*mw : (int(id)+1)*mw]
}

// Mat returns the boolean matrix of N-SFA state id (rows of s.Words()
// words each). The slice aliases internal storage; do not modify.
func (s *NSFA) Mat(id int32) []uint64 { return s.matOf(id) }

// Words returns the number of 64-bit words per matrix row.
func (s *NSFA) Words() int { return s.words }

// LiveSize excludes the all-empty correspondence, mirroring DSFA.LiveSize.
func (s *NSFA) LiveSize() int {
	if s.EmptyID >= 0 {
		return s.NumStates - 1
	}
	return s.NumStates
}

// BC returns the byte classes NextC is indexed by.
func (s *NSFA) BC() *nfa.ByteClasses { return s.t.BC }

// NextByte returns the successor of N-SFA state id on input byte b.
func (s *NSFA) NextByte(id int32, b byte) int32 {
	return s.NextC[int(id)*s.t.BC.Count+int(s.t.BC.Of[b])]
}

// Run returns the N-SFA state reached from `from` after reading text.
func (s *NSFA) Run(from int32, text []byte) int32 {
	q := from
	for _, b := range text {
		q = s.NextByte(q, b)
	}
	return q
}

// Accepts reports whole-input acceptance by the N-SFA.
func (s *NSFA) Accepts(text []byte) bool {
	return s.Accept[s.Run(s.Start, text)]
}

// ComposeMat writes into h the composition "f then g" of two
// correspondences: h(q) = ⋃_{p∈f(q)} g(p) — one boolean matrix product,
// the O(|N|³) step of Table II's N-SFA parallel reduction.
// h must be zeroed and must not alias f or g; all three are n×words flat
// matrices.
func ComposeMat(h, f, g []uint64, n, words int) {
	for q := 0; q < n; q++ {
		hq := h[q*words : (q+1)*words]
		fq := f[q*words : (q+1)*words]
		for w, word := range fq {
			for word != 0 {
				tz := bits.TrailingZeros64(word)
				word &^= 1 << tz
				p := w*64 + tz
				gp := g[p*words : (p+1)*words]
				for i := range hq {
					hq[i] |= gp[i]
				}
			}
		}
	}
}

// String summarizes the automaton.
func (s *NSFA) String() string {
	return fmt.Sprintf("NSFA{states: %d (live %d), over NFA %d}",
		s.NumStates, s.LiveSize(), s.A.NumStates)
}
