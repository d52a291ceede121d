package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/engine"
	"repro/internal/nfa"
	"repro/internal/syntax"
	"repro/internal/textgen"
)

// Ablations quantifies the design choices DESIGN.md §7 calls out:
//
//	A1 reduction order (sequential O(p) vs ⊙-tree),
//	A2 table footprint (byte-class rows vs the paper's 256-wide int32),
//	A3 precomputed vs on-the-fly SFA (Table III's cost amortized),
//	A4 Glushkov vs Thompson front-end,
//	A5 reduction cost growth with thread count.
func (c Config) Ablations() error {
	c = c.Defaults()
	size := c.TextMB << 20 / 2
	if size < 1<<20 {
		size = 1 << 20
	}

	// A1 + A5: reduction strategies across thread counts.
	c.header("Ablation A1/A5 — reduction order (r50)")
	d := dfa.MustCompilePattern("([0-4]{50}[5-9]{50})*")
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		return err
	}
	text := textgen.RnText(50, size, c.Seed)
	w := c.table()
	fmt.Fprintf(w, "threads\tseq-reduce GB/s\ttree-reduce GB/s\t\n")
	for p := 2; p <= c.MaxThreads; p *= 2 {
		mSeq := engine.NewSFAParallel(s, p, engine.ReduceSequential)
		mTree := engine.NewSFAParallel(s, p, engine.ReduceTree)
		gbSeq := gbPerSec(len(text), bestOf(c.Repeats, func() { mSeq.Match(text) }))
		gbTree := gbPerSec(len(text), bestOf(c.Repeats, func() { mTree.Match(text) }))
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\t\n", p, gbSeq, gbTree)
	}
	w.Flush()

	// A2: table footprint on a big-table pattern (the Fig. 8 regime). The
	// engines walk byte-class rows (4 B per state per class); the paper's
	// 256-wide int32 table (1 KiB per state) is reported for comparison,
	// computed from the state count — no engine builds it.
	c.header(fmt.Sprintf("Ablation A2 — table footprint (r%d)", c.Fig8N))
	dBig := dfa.MustCompilePattern(fmt.Sprintf("([0-4]{%d}[5-9]{%d})*", c.Fig8N, c.Fig8N))
	sBig, err := core.BuildDSFA(dBig, 0)
	if err != nil {
		return err
	}
	bigText := textgen.RnText(c.Fig8N, size, c.Seed)
	w2 := c.table()
	fmt.Fprintf(w2, "layout\ttable KiB\tGB/s\t\n")
	m := engine.NewSFAParallel(sBig, 2, engine.ReduceSequential)
	gb := gbPerSec(len(bigText), bestOf(c.Repeats, func() { m.Match(bigText) }))
	fmt.Fprintf(w2, "class rows (%d classes)\t%d\t%.3f\t\n", dBig.BC.Count, m.TableBytes()>>10, gb)
	fmt.Fprintf(w2, "i32-256 (paper, computed)\t%d\t-\t\n", sBig.NumStates)
	w2.Flush()

	// A3: precomputed vs lazy, single pass including construction.
	c.header("Ablation A3 — precomputed vs on-the-fly SFA (r50, one pass)")
	start := time.Now()
	sEager, err := core.BuildDSFA(d, 0)
	if err != nil {
		return err
	}
	mEager := engine.NewSFAParallel(sEager, 2, engine.ReduceSequential)
	mEager.Match(text)
	eager := time.Since(start)
	start = time.Now()
	mLazy, err := engine.NewSFALazy(d, 2, 0)
	if err != nil {
		return err
	}
	mLazy.Match(text)
	lazy := time.Since(start)
	c.printf("eager: build(%d states)+match = %.3f s\n", sEager.NumStates, eager.Seconds())
	c.printf("lazy:  match materializing %d states = %.3f s\n", mLazy.States(), lazy.Seconds())

	// A4: front-end construction comparison.
	c.header("Ablation A4 — Glushkov vs Thompson front end")
	w = c.table()
	fmt.Fprintf(w, "pattern\tglushkov |N|\tthompson |N|\tsame min DFA\t\n")
	for _, pat := range []string{"(ab)*", "([0-4]{5}[5-9]{5})*", "(a|b)*abb", "(a|bc)*d?"} {
		node := syntax.MustParse(pat, 0)
		g, err := nfa.Glushkov(node)
		if err != nil {
			return err
		}
		th, err := nfa.Thompson(node)
		if err != nil {
			return err
		}
		dg, err := dfa.Determinize(g, 0)
		if err != nil {
			return err
		}
		dt, err := dfa.Determinize(th, 0)
		if err != nil {
			return err
		}
		same := dfa.Isomorphic(dfa.Minimize(dg), dfa.Minimize(dt))
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\t\n", pat, g.NumStates, th.NumStates, same)
	}
	w.Flush()
	return nil
}
