package harness

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests.
func tiny(buf *bytes.Buffer) Config {
	return Config{
		Out:        buf,
		TextMB:     1,
		MaxThreads: 2,
		Fig8N:      10,
		SnortN:     80,
		Seed:       7,
		Repeats:    1,
	}
}

func TestFig3Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := tiny(&buf).Fig3(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 3", "|Sd| > |D|^2", "csv:", "growth exponent"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestFig6Through9Smoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny(&buf)
	for _, run := range []func() error{cfg.Fig6, cfg.Fig7, cfg.Fig8, cfg.Fig9} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	for _, want := range []string{"Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "dfa-seq (Alg.2)", "sfa-par (Alg.5)", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	// Fig. 6 sizes echoed from the paper's values.
	if !strings.Contains(out, "|D|=10 |Sd|=109") {
		t.Error("Fig. 6 sizes not reproduced")
	}
	if !strings.Contains(out, "|D|=100 |Sd|=10099") {
		t.Error("Fig. 7 sizes not reproduced")
	}
}

func TestFig10Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := tiny(&buf).Fig10(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "|D|=10 |S|=21") {
		t.Error("Fig. 10 sizes not reproduced")
	}
	if !strings.Contains(out, "1000") {
		t.Error("sweep should reach 1000 KB")
	}
}

func TestTable2Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := tiny(&buf).Table2(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "alg3-spec") || !strings.Contains(out, "alg5-lazy") {
		t.Errorf("missing engines in Table II output:\n%s", out)
	}
	if !strings.Contains(out, "(skipped: 10⁶ states)") {
		t.Error("n=500 eager SFA should be skipped by default")
	}
}

func TestTable3Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := tiny(&buf).Table3(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "SFA states/s") {
		t.Error("missing rate column")
	}
	if !strings.Contains(out, "10099") {
		t.Error("r50 D-SFA size missing")
	}
}

func TestFactsSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := tiny(&buf).Facts(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fact 1", "Fact 2", "3125", "2048", "Devadze"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := tiny(&buf).Ablations(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"A1/A5", "A2", "A3", "A4", "tree-reduce", "layout", "class rows", "i32-256", "materializing"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.TextMB != 64 || c.Fig8N != 150 || c.SnortN != 2000 || c.Repeats != 3 {
		t.Errorf("unexpected defaults: %+v", c)
	}
	if c.MaxThreads < 2 {
		t.Error("MaxThreads too small")
	}
}

func TestGBPerSec(t *testing.T) {
	if gbPerSec(1e9, 0) != 0 {
		t.Error("zero duration must not divide")
	}
	if got := gbPerSec(2e9, 2e9); got != 1.0 { // 2 GB in 2 s
		t.Errorf("got %f", got)
	}
}
