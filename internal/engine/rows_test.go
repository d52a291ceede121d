package engine

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/nfa"
	"repro/internal/syntax"
)

func TestRowsFit(t *testing.T) {
	cases := []struct {
		states, classes int
		want            bool
	}{
		{1, 1, true},
		{1 << 24, 256, true},    // exactly 2³² entries: largest offset still fits
		{1<<24 + 1, 256, false}, // one row too many
		{1 << 32, 1, true},      // 1-class automaton at the limit
		{1<<32 + 1, 1, false},   // …and past it
		{151_842, 256, true},    // all ids shard states, 256 classes
		{1 << 31, 3, false},     // a large 3-class automaton
		{0, 5, true},            // empty table
		{10, 0, false},          // no classes: malformed
		{-1, 3, false},          // malformed
	}
	for _, c := range cases {
		if got := rowsFit(c.states, c.classes); got != c.want {
			t.Errorf("rowsFit(%d, %d) = %v, want %v", c.states, c.classes, got, c.want)
		}
	}
}

// rowsCase is one automaton whose rows are checked against the
// class-indexed reference walk it was built from.
type rowsCase struct {
	name  string
	nextC []int32
	bc    *nfa.ByteClasses
	run   func(from int32, text []byte) int32
}

// handDFA builds a DFA with the given byte classes and seeded random
// transitions; no pattern needed, so any class count is reachable.
func handDFA(states int, bc *nfa.ByteClasses, seed int64) *dfa.DFA {
	d := dfa.New(states, bc)
	r := rand.New(rand.NewSource(seed))
	for i := range d.NextC {
		d.NextC[i] = int32(r.Intn(states))
	}
	d.DetectDead()
	return d
}

func rowsCases(t *testing.T) []rowsCase {
	t.Helper()
	var cases []rowsCase
	addDFA := func(name string, d *dfa.DFA) {
		cases = append(cases, rowsCase{name + "/dfa", d.NextC, d.BC, d.Run})
	}
	for _, pat := range []string{
		"(ab)*", "(a|b)*abb", "([0-4]{2}[5-9]{2})*", "([0-4]{3}[5-9]{3})*",
		"a+(b|c)*a?", "(a|bc)*", "([ab]{3}c)*",
	} {
		node := syntax.MustParse(pat, 0)
		d := dfa.MustCompilePattern(pat)
		s, err := core.BuildDSFA(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := nfa.Glushkov(node)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := core.BuildNSFA(a, 500_000)
		if err != nil {
			t.Fatal(err)
		}
		addDFA(pat, d)
		cases = append(cases,
			rowsCase{pat + "/dsfa", s.NextC, s.BC(), s.Run},
			rowsCase{pat + "/nsfa", ns.NextC, ns.BC(), ns.Run})
	}

	// One class: every byte behaves alike (a length-parity automaton
	// with random extras).
	addDFA("1-class", handDFA(7, &nfa.ByteClasses{Count: 1, Rep: []byte{0}}, 1))

	// 256 classes: every byte its own class, the widest rows possible.
	wide := &nfa.ByteClasses{Count: 256, Rep: make([]byte, 256)}
	for b := range wide.Of {
		wide.Of[b] = uint8(b)
		wide.Rep[b] = byte(b)
	}
	addDFA("256-class", handDFA(301, wide, 2))
	return cases
}

// TestRowsWalkAgreesWithReference checks the 4×-unrolled walker against
// the class-indexed NextByte/Run walk from every start state: all text
// lengths 0–9 (every unroll tail) and random 4 KiB texts, drawn both
// from the class representatives and from all 256 bytes.
func TestRowsWalkAgreesWithReference(t *testing.T) {
	r := rand.New(rand.NewSource(1207))
	for _, c := range rowsCases(t) {
		rw := newRows(c.nextC, c.bc)
		if got, want := rw.bytes(), int64(len(c.nextC))*4; got != want {
			t.Fatalf("%s: rows are %d B, want %d", c.name, got, want)
		}
		var texts [][]byte
		for n := 0; n <= 9; n++ {
			texts = append(texts, randText(r, n, c.bc.Rep), randText(r, n, nil))
		}
		for i := 0; i < 4; i++ {
			texts = append(texts, randText(r, 4096, c.bc.Rep), randText(r, 4096, nil))
		}
		states := len(c.nextC) / c.bc.Count
		for q := int32(0); q < int32(states); q++ {
			for _, text := range texts {
				if got, want := rw.walk(q, text), c.run(q, text); got != want {
					t.Fatalf("%s: walk(%d, len %d) = %d, reference %d", c.name, q, len(text), got, want)
				}
			}
		}
	}
}

// TestWidthTablesMatchWideTable checks the pre-multiplied uint32 rows
// against the flat 256-wide int32 table at every (state, byte): the
// row entry divided by the class count is the wide table's successor.
func TestWidthTablesMatchWideTable(t *testing.T) {
	for _, pat := range []string{"(ab)*", "([0-4]{3}[5-9]{3})*", "(a|b)*abb"} {
		d := dfa.MustCompilePattern(pat)
		s, err := core.BuildDSFA(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		wide := s.Table256()
		rw := newRows(s.NextC, s.BC())
		for q := int32(0); q < int32(s.NumStates); q++ {
			for b := 0; b < 256; b++ {
				want := wide[int(q)<<8|b]
				off := rw.next[uint32(q)*rw.classes+uint32(rw.classOf[b])]
				if off%rw.classes != 0 || int32(off/rw.classes) != want {
					t.Fatalf("%s: row entry %d at (%d, %d), wide table %d", pat, off, q, b, want)
				}
				if got := rw.walk(q, []byte{byte(b)}); got != want {
					t.Fatalf("%s: walk(%d, %q) = %d, wide table %d", pat, q, byte(b), got, want)
				}
			}
		}
	}
}

// randText draws n bytes from alphabet, or from all 256 bytes when nil.
func randText(r *rand.Rand, n int, alphabet []byte) []byte {
	w := make([]byte, n)
	for i := range w {
		if alphabet == nil {
			w[i] = byte(r.Intn(256))
		} else {
			w[i] = alphabet[r.Intn(len(alphabet))]
		}
	}
	return w
}

// TestLayoutsAndPoolingAgreeWithOracle is the satellite cross-check: the
// engines' row walk, pooled and spawning dispatch, against the NFA
// bitset oracle on randomized inputs and thread counts including 1, 2,
// 7, 64 and counts exceeding the input length.
func TestLayoutsAndPoolingAgreeWithOracle(t *testing.T) {
	patterns := []string{
		"(ab)*",
		"(a|b)*abb",
		"([0-4]{2}[5-9]{2})*",
		"a+(b|c)*a?",
		"([ab]{3}c)*",
		"(a|bc)*d?",
	}
	threadCounts := []int{1, 2, 7, 64}
	r := rand.New(rand.NewSource(1207))

	for _, pat := range patterns {
		node := syntax.MustParse(pat, 0)
		oracle, err := NewNFASim(node)
		if err != nil {
			t.Fatal(err)
		}
		d := dfa.MustCompilePattern(pat)
		s, err := core.BuildDSFA(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := nfa.Glushkov(node)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := core.BuildNSFA(a, 500_000)
		if err != nil {
			t.Fatal(err)
		}

		// Inputs: random words over a small alphabet, several shorter
		// than the largest thread count so empty chunks are exercised.
		inputs := make([][]byte, 0, 40)
		for i := 0; i < 40; i++ {
			w := make([]byte, r.Intn(120))
			for j := range w {
				w[j] = byte('a' + r.Intn(4))
			}
			if i%4 == 0 {
				w = w[:min(len(w), r.Intn(8))] // force len(text) < threads at p=64
			}
			inputs = append(inputs, w)
		}

		seq := NewDFASequential(d)
		for _, p := range threadCounts {
			for _, spawn := range []bool{false, true} {
				var opts []Option
				if spawn {
					opts = append(opts, WithSpawn())
				}
				ms := []Matcher{
					seq,
					NewSFAParallel(s, p, ReduceSequential, opts...),
					NewSFAParallel(s, p, ReduceTree, opts...),
					NewDFASpeculative(d, p, ReduceTree, opts...),
					NewNSFAParallel(ns, p, ReduceSequential, opts...),
				}
				for _, in := range inputs {
					want := oracle.Match(in)
					for _, m := range ms {
						if got := m.Match(in); got != want {
							t.Fatalf("pattern %q input %q p=%d: %s = %v, oracle = %v",
								pat, in, p, m.Name(), got, want)
						}
					}
				}
			}
		}
	}
}
