package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/textgen"
)

// multiFixture builds a two-rule combined matcher by hand: the DFA of
// ([0-4]{2}[5-9]{2})* with bit 0 on its accept states plus bit 1 on the
// start state only (a distinct mask so the two verdicts differ).
func multiFixture(t testing.TB, threads int, opts ...Option) (*MultiSFA, *dfa.DFA) {
	t.Helper()
	d := dfa.MustCompilePattern(`([0-4]{2}[5-9]{2})*`)
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	masks := make([]uint64, d.NumStates)
	for q := 0; q < d.NumStates; q++ {
		if d.Accept[q] {
			masks[q] |= 1
		}
	}
	masks[d.Start] |= 2
	return NewMultiSFA(s, masks, 1, threads, opts...), d
}

func TestMultiSFAMaskAgreesAcrossThreadsAndLayouts(t *testing.T) {
	inputs := [][]byte{
		nil, []byte("05"), []byte("0459"), []byte("04590459"), []byte("0455"),
		textgen.RnText(2, 4096, 3), textgen.RnText(2, 4097, 3),
	}
	ref, d := multiFixture(t, 1)
	dst := make([]uint64, 1)
	for _, in := range inputs {
		want := ref.MatchMask(in, dst)[0]
		if accepts := d.Accepts(in); accepts != (want&1 != 0) {
			t.Fatalf("input len %d: bit 0 %v, DFA accepts %v", len(in), want&1 != 0, accepts)
		}
		for _, threads := range []int{2, 3, 8} {
			m, _ := multiFixture(t, threads)
			got := m.MatchMask(in, make([]uint64, 1))[0]
			if got != want {
				t.Fatalf("input len %d p=%d: mask %x, want %x", len(in), threads, got, want)
			}
			if m.Match(in) != (want != 0) {
				t.Fatalf("input len %d p=%d: Match disagrees with mask", len(in), threads)
			}
		}
	}
}

func TestMultiSFAMatchMaskZeroAllocSteadyState(t *testing.T) {
	m, _ := multiFixture(t, 4)
	text := textgen.RnText(2, 1<<16, 1)
	dst := make([]uint64, 1)
	m.MatchMask(text, dst) // warm the context pool
	avg := testing.AllocsPerRun(50, func() { m.MatchMask(text, dst) })
	if avg != 0 {
		t.Fatalf("MatchMask allocates %.1f/op in steady state, want 0", avg)
	}
}

func TestMultiSFASpawnMode(t *testing.T) {
	ref, _ := multiFixture(t, 4)
	m, _ := multiFixture(t, 4, WithSpawn())
	text := textgen.RnText(2, 1<<14, 2)
	if got, want := m.MatchMask(text, make([]uint64, 1))[0], ref.MatchMask(text, make([]uint64, 1))[0]; got != want {
		t.Fatalf("spawn mask %x != pooled mask %x", got, want)
	}
}
