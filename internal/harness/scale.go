package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/engine"
	"repro/internal/textgen"
)

// scaleSpec describes one throughput-vs-threads experiment (Figs. 6–9).
type scaleSpec struct {
	title   string
	pattern string
	text    func(c Config) []byte
	paper   string // the paper's quoted sizes, echoed for comparison
}

// Fig6 is r5: |D| = 10, |Sd| = 109 — near-linear scaling.
func (c Config) Fig6() error {
	c = c.Defaults()
	return c.scale(scaleSpec{
		title:   "Fig. 6 — r5 = ([0-4]{5}[5-9]{5})*",
		pattern: "([0-4]{5}[5-9]{5})*",
		text:    func(c Config) []byte { return textgen.RnText(5, c.TextMB<<20, c.Seed) },
		paper:   "paper: |D|=10 |Sd|=109, scales to >10x @ 12 threads",
	})
}

// Fig7 is r50: |D| = 100, |Sd| = 10 099 — still scales.
func (c Config) Fig7() error {
	c = c.Defaults()
	return c.scale(scaleSpec{
		title:   "Fig. 7 — r50 = ([0-4]{50}[5-9]{50})*",
		pattern: "([0-4]{50}[5-9]{50})*",
		text:    func(c Config) []byte { return textgen.RnText(50, c.TextMB<<20, c.Seed) },
		paper:   "paper: |D|=100 |Sd|=10099, scales well up to 12 threads",
	})
}

// Fig8 is r_n with a table far beyond the LLC: the SFA loses to the
// sequential DFA (the paper's n=500 gives a 1 GB table vs a 12 MB L3).
func (c Config) Fig8() error {
	c = c.Defaults()
	n := c.Fig8N
	return c.scale(scaleSpec{
		title:   fmt.Sprintf("Fig. 8 — r%d = ([0-4]{%d}[5-9]{%d})* (table ≫ LLC)", n, n, n),
		pattern: fmt.Sprintf("([0-4]{%d}[5-9]{%d})*", n, n),
		text:    func(c Config) []byte { return textgen.RnText(n, c.TextMB<<20, c.Seed) },
		paper:   "paper (n=500): |D|=1000 |Sd|=1000999, SFA slower than sequential DFA",
	})
}

// Fig9 is ([0-4]{500}[5-9]{500})*|a* over an all-'a' input: the largest
// SFA of the study, yet the fastest — transitions stay in one hot state
// and the table rows in cache.
func (c Config) Fig9() error {
	c = c.Defaults()
	n := c.Fig8N
	return c.scale(scaleSpec{
		title:   fmt.Sprintf("Fig. 9 — ([0-4]{%d}[5-9]{%d})*|a*, input = 'a' repeated", n, n),
		pattern: fmt.Sprintf("([0-4]{%d}[5-9]{%d})*|a*", n, n),
		text:    func(c Config) []byte { return textgen.Repeat('a', c.TextMB<<20) },
		paper:   "paper (n=500): |Sd|=1001000 (biggest) but best throughput",
	})
}

// scale runs the sweep: 1 thread = sequential DFA (as in the paper:
// "the results with one thread were of DFA (and not D-SFA)"), p ≥ 2 =
// parallel SFA with sequential reduction (the configuration of Sect. VI).
func (c Config) scale(spec scaleSpec) error {
	c.header(spec.title)
	c.printf("%s\n", spec.paper)

	d := dfa.MustCompilePattern(spec.pattern)
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		return err
	}
	text := spec.text(c)
	c.printf("measured: |D|=%d |Sd|=%d classes=%d input=%d MiB; SFA rows %d KiB (paper's int32 table: %d KiB)\n",
		d.LiveSize(), s.LiveSize(), d.BC.Count, len(text)>>20, s.NumStates*d.BC.Count*4>>10, s.NumStates)

	seq := engine.NewDFASequential(d)
	if !seq.Match(text) {
		return fmt.Errorf("harness: generated text not accepted by %q", spec.pattern)
	}
	base := bestOf(c.Repeats, func() { seq.Match(text) })
	baseGB := gbPerSec(len(text), base)

	w := c.table()
	fmt.Fprintf(w, "threads\tengine\tGB/s\tspeedup\t\n")
	fmt.Fprintf(w, "1\tdfa-seq (Alg.2)\t%.3f\t%.2fx\t\n", baseGB, 1.0)
	for p := 2; p <= c.MaxThreads; p++ {
		m := engine.NewSFAParallel(s, p, engine.ReduceSequential, c.engineOpts()...)
		dur := bestOf(c.Repeats, func() { m.Match(text) })
		gb := gbPerSec(len(text), dur)
		fmt.Fprintf(w, "%d\tsfa-par (Alg.5)\t%.3f\t%.2fx\t\n", p, gb, gb/baseGB)
	}
	w.Flush()
	return nil
}

// Table2 validates the complexity rows of the paper's Table II
// empirically: as |D| grows with fixed input and p, Algorithm 3's
// throughput decays like 1/|D| (the speculative per-byte loop over all
// states), while Algorithm 5's per-byte cost stays flat (one lookup), and
// sequential reduction costs O(p) regardless of automaton size.
func (c Config) Table2() error {
	c = c.Defaults()
	c.header("Table II — empirical scaling of the computation-time rows")
	size := c.TextMB << 20 / 4 // Alg. 3 at |D|=1000 is ~1000× slower; keep bounded
	if size < 1<<20 {
		size = 1 << 20
	}
	const p = 2

	w := c.table()
	fmt.Fprintf(w, "n\t|D|\t|Sd|\tdfa-seq GB/s\talg3-spec GB/s\talg5-sfa GB/s\talg5-lazy GB/s\t\n")
	for _, n := range []int{5, 50, 500} {
		pattern := fmt.Sprintf("([0-4]{%d}[5-9]{%d})*", n, n)
		d := dfa.MustCompilePattern(pattern)
		text := textgen.RnText(n, size, c.Seed)

		seq := engine.NewDFASequential(d)
		seqGB := gbPerSec(len(text), bestOf(c.Repeats, func() { seq.Match(text) }))

		// Algorithm 3 on a chunk scaled down for feasibility at |D|=1000,
		// then normalized: its cost is linear in input size.
		specText := text
		if n >= 500 {
			specText = text[:len(text)/8]
		}
		spec := engine.NewDFASpeculative(d, p, engine.ReduceSequential, c.engineOpts()...)
		specGB := gbPerSec(len(specText), bestOf(1, func() { spec.Match(specText) }))

		// Algorithm 5 precomputed — except at n=500 where the full SFA
		// needs gigabytes; the lazy engine shows the same per-byte cost
		// while materializing only the states the text visits.
		sfaGB := 0.0
		sfaStates := 0
		if n < 500 || c.Table3Full {
			s, err := core.BuildDSFA(d, 0)
			if err != nil {
				return err
			}
			sfaStates = s.LiveSize()
			m := engine.NewSFAParallel(s, p, engine.ReduceSequential, c.engineOpts()...)
			sfaGB = gbPerSec(len(text), bestOf(c.Repeats, func() { m.Match(text) }))
		} else {
			sfaStates = -1 // not built
		}
		lazy, err := engine.NewSFALazy(d, p, 1<<21, c.engineOpts()...)
		if err != nil {
			return err
		}
		lazyGB := gbPerSec(len(text), bestOf(c.Repeats, func() { lazy.Match(text) }))

		sfaCol := fmt.Sprintf("%.3f", sfaGB)
		if sfaStates < 0 {
			sfaCol = "(skipped: 10⁶ states)"
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%.3f\t%.4f\t%s\t%.3f\t\n",
			n, d.LiveSize(), sfaStates, seqGB, specGB, sfaCol, lazyGB)
	}
	w.Flush()
	c.printf("expected shape: alg3 ∝ 1/|D| (speculation per byte), alg5 flat (one lookup per byte)\n")
	return nil
}
