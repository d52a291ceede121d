package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// runLog is one saved run: its provenance line and its result line.
type runLog struct {
	prov provenance
	res  result
}

// readRunLog parses the standard output of one run.
func readRunLog(path string) (runLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return runLog{}, err
	}
	defer f.Close()
	var l runLog
	var last string
	var haveProv bool
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "provenance "); ok {
			if err := json.Unmarshal([]byte(p), &l.prov); err != nil {
				return runLog{}, fmt.Errorf("%s: provenance: %w", path, err)
			}
			haveProv = true
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return runLog{}, err
	}
	if !haveProv {
		return runLog{}, fmt.Errorf("%s: no provenance line", path)
	}
	if err := json.Unmarshal([]byte(last), &l.res); err != nil {
		return runLog{}, fmt.Errorf("%s: result line: %w", path, err)
	}
	return l, nil
}

// comparable reports why two runs must not be set side by side: a
// different core count or GOMAXPROCS changes what every timing means.
func comparable(a, b provenance) error {
	if a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS {
		return fmt.Errorf("runs differ in nproc (%d vs %d) or GOMAXPROCS (%d vs %d); refusing to compare",
			a.NProc, b.NProc, a.GOMAXPROCS, b.GOMAXPROCS)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("runs measure different things (workload %s/%s, trace %d/%d)", a.Workload, b.Workload, a.Trace, b.Trace)
	}
	return nil
}

// compareMain prints two saved runs' metrics side by side.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.log NEW.log")
		return 2
	}
	a, err := readRunLog(args[0])
	if err == nil {
		var b runLog
		if b, err = readRunLog(args[1]); err == nil {
			if err = comparable(a.prov, b.prov); err == nil {
				printComparison(a, b)
				return 0
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
	return 2
}

func printComparison(a, b runLog) {
	fmt.Printf("old: commit %s source %s seed %d\nnew: commit %s source %s seed %d\n",
		a.prov.Commit, a.prov.SourceHash, a.prov.Seed, b.prov.Commit, b.prov.SourceHash, b.prov.Seed)
	names := make([]string, 0, len(a.res.Metrics))
	for n := range a.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %14s %9s\n", "metric", "old", "new", "change")
	for _, n := range names {
		old := a.res.Metrics[n]
		cur, ok := b.res.Metrics[n]
		if !ok {
			fmt.Printf("%-34s %14.4f %14s %9s\n", n, old.Value, "-", "")
			continue
		}
		change := "n/a"
		if old.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(cur.Value-old.Value)/old.Value)
		}
		fmt.Printf("%-34s %14.4f %14.4f %9s %s\n", n, old.Value, cur.Value, change, old.Unit)
	}
}
