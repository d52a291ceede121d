// Package harness drives the reproduction of every figure and table in
// the paper's evaluation (Sect. VI) and discussion (Sect. VII), printing
// the same series the paper plots: SFA/DFA size distributions (Fig. 3),
// throughput-vs-threads curves (Figs. 6–9), the small-input crossover
// (Fig. 10), construction times (Table III), empirical complexity
// scaling (Table II), and the explosion witnesses (Facts 1–2).
//
// Absolute numbers differ from the paper's 2013 dual-Xeon testbed; the
// shapes — who wins, by what factor, where the crossover falls — are the
// reproduction targets. See EXPERIMENTS.md for paper-vs-measured.
//
// Deviation from the paper's setup: the paper's engines walk a 256-wide
// int32 table (1 KiB per state). Every engine here — the Alg. 2/3
// baselines as well as the SFA — walks pre-multiplied byte-class rows
// (4 B per state per byte class; see internal/engine/README.md), so
// Figs. 6–10 compare like with like, but the cache footprint Fig. 8
// studies is far smaller than the paper's: r150's rows take about 1 MiB
// where the paper's table would take 88 MiB. Fig. 6–9 headers and
// ablation A2 print both footprints; the int32 one is computed from the
// state count, never built.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"repro/internal/engine"
)

// Config parameterizes all experiments.
type Config struct {
	Out io.Writer

	// TextMB is the benchmark input size in MiB (the paper used 1024).
	TextMB int
	// MaxThreads is the upper end of the thread sweeps (the paper's
	// machine had 12 cores; sweeps oversubscribe past NumCPU to show the
	// saturation plateau).
	MaxThreads int
	// Fig8N is the r_n exponent for the cache-overflow experiment. The
	// paper used 500 (10⁶ SFA states, 1 GB of tables); 150 produces a
	// 92 MiB table that already overflows any L3 and keeps memory modest.
	Fig8N int
	// Table3Full additionally builds the full r500 D-SFA in Table III.
	Table3Full bool
	// SnortN is the Fig. 3 corpus size (the paper used 20 312).
	SnortN int
	// Seed makes workloads deterministic.
	Seed int64
	// Repeats per measurement; the best time is kept (paper-style
	// steady-state throughput).
	Repeats int
	// Spawn restores spawn-per-match goroutine creation — the seed/paper
	// behaviour, whose per-call cost Fig. 10 measures — instead of the
	// persistent worker pool.
	Spawn bool
}

// engineOpts translates the Spawn knob into engine options.
func (c Config) engineOpts() []engine.Option {
	var opts []engine.Option
	if c.Spawn {
		opts = append(opts, engine.WithSpawn())
	}
	return opts
}

// Defaults fills zero fields with sensible defaults.
func (c Config) Defaults() Config {
	if c.TextMB <= 0 {
		c.TextMB = 64
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = max(8, runtime.GOMAXPROCS(0))
	}
	if c.Fig8N <= 0 {
		c.Fig8N = 150
	}
	if c.SnortN <= 0 {
		c.SnortN = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	return c
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// table returns a tabwriter for aligned output.
func (c Config) table() *tabwriter.Writer {
	return tabwriter.NewWriter(c.Out, 2, 4, 2, ' ', tabwriter.AlignRight)
}

// bestOf runs f `repeats` times and returns the minimum duration.
func bestOf(repeats int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// gbPerSec converts a byte count and duration into GB/s (decimal GB, as
// the paper's throughput axes).
func gbPerSec(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e9
}

// header prints a section banner.
func (c Config) header(title string) {
	c.printf("\n=== %s ===\n", title)
}
