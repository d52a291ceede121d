package core

import (
	"testing"

	"repro/internal/dfa"
	"repro/internal/nfa"
	"repro/internal/syntax"
)

// TestDSFAWidthTablesAgree checks the flat 256-wide table the C code
// generator emits against the class-indexed table at every (state, byte).
func TestDSFAWidthTablesAgree(t *testing.T) {
	for _, pat := range []string{"(ab)*", "([0-4]{2}[5-9]{2})*", "(a|b)*abb"} {
		d := dfa.MustCompilePattern(pat)
		s, err := BuildDSFA(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		wide := s.Table256()
		if len(wide) != s.NumStates*256 {
			t.Fatalf("%s: Table256 has %d entries, want %d", pat, len(wide), s.NumStates*256)
		}
		for q := int32(0); q < int32(s.NumStates); q++ {
			for b := 0; b < 256; b++ {
				got := wide[int(q)<<8|b]
				if got != s.NextByte(q, byte(b)) {
					t.Fatalf("%s: i32 table disagrees with NextByte at (%d, %d)", pat, q, b)
				}
				if got < 0 || int(got) >= s.NumStates {
					t.Fatalf("%s: entry (%d, %d) = %d out of range", pat, q, b, got)
				}
			}
		}
	}
}

// TestNSFAWidthTablesAgree checks the N-SFA class-indexed table against
// the correspondence semantics at every (state, byte): the successor of
// f on b is the matrix product f ⊙ δ_b, where δ_b is the start
// (identity) state's successor on b.
func TestNSFAWidthTablesAgree(t *testing.T) {
	for _, pat := range []string{"(ab)*", "(a|bc)*", "([ab]{3}c)*"} {
		node := syntax.MustParse(pat, 0)
		a, err := nfa.Glushkov(node)
		if err != nil {
			t.Fatal(err)
		}
		s, err := BuildNSFA(a, 500_000)
		if err != nil {
			t.Fatal(err)
		}
		n, words := a.NumStates, s.Words()
		h := make([]uint64, n*words)
		for q := int32(0); q < int32(s.NumStates); q++ {
			for b := 0; b < 256; b++ {
				next := s.NextByte(q, byte(b))
				if next < 0 || int(next) >= s.NumStates {
					t.Fatalf("%s: entry (%d, %d) = %d out of range", pat, q, b, next)
				}
				clear(h)
				ComposeMat(h, s.Mat(q), s.Mat(s.NextByte(s.Start, byte(b))), n, words)
				if !eqWords(h, s.Mat(next)) {
					t.Fatalf("%s: class table disagrees with f ⊙ δ_b at (%d, %d)", pat, q, b)
				}
			}
		}
	}
}
