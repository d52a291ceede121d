package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or
// below it. It returns 0 for no samples.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	return sorted[rank-1]
}

// latencies collects one timing per operation, in nanoseconds.
type latencies []int64

// summary sorts the samples and returns the median, the p-th percentile
// and the number of samples strictly above that percentile: a high
// percentile means little with fewer than ten samples beyond it.
func (l latencies) summary(p float64) (p50, pp int64, beyond int) {
	s := slices.Clone(l)
	slices.Sort(s)
	p50, pp = percentile(s, 50), percentile(s, p)
	atOrBelow, _ := slices.BinarySearch(s, pp+1)
	return p50, pp, len(s) - atOrBelow
}

// floats converts the samples to float64.
func (l latencies) floats() []float64 {
	out := make([]float64, len(l))
	for i, ns := range l {
		out[i] = float64(ns)
	}
	return out
}

// medianFloat returns the median of xs (the mean of the middle two for
// an even count), 0 for none.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// promSamples parses Prometheus text exposition into a map from the
// series identity (metric name plus its label set exactly as exposed)
// to its value. Comments and blank lines are skipped; a line whose
// value does not parse is an error, since a silently dropped counter
// would turn a delta into garbage.
func promSamples(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The series identity ends at the closing brace when labels are
		// present (label values may contain spaces), else at the first
		// space.
		end := strings.IndexByte(line, ' ')
		if br := strings.IndexByte(line, '{'); br >= 0 && (end < 0 || br < end) {
			cl := strings.LastIndexByte(line, '}')
			if cl < br {
				return nil, fmt.Errorf("prometheus: unterminated labels in %q", line)
			}
			end = cl + 1
		}
		if end <= 0 || end >= len(line) {
			return nil, fmt.Errorf("prometheus: no value in %q", line)
		}
		fields := strings.Fields(line[end:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("prometheus: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus: %q: %w", line, err)
		}
		out[line[:end]] = v
	}
	return out, sc.Err()
}

// poolDelta is the change of one engine pool's scheduling counters
// between two /metrics scrapes.
type poolDelta struct {
	Submitted, Inline, BusyNs, IdleNs float64
}

// poolDeltas extracts the sfa_pool_* counter deltas of the named pool
// ("match" or "build") between two parsed scrapes.
func poolDeltas(before, after map[string]float64, pool string) poolDelta {
	d := func(name string) float64 {
		key := fmt.Sprintf(`%s{pool=%q}`, name, pool)
		return after[key] - before[key]
	}
	return poolDelta{
		Submitted: d("sfa_pool_submitted_total"),
		Inline:    d("sfa_pool_inline_total"),
		BusyNs:    d("sfa_pool_busy_ns_total"),
		IdleNs:    d("sfa_pool_idle_ns_total"),
	}
}

// busyShare is the fraction of worker wall time spent executing
// requests; 0 when the pool's workers recorded no time at all.
func (d poolDelta) busyShare() float64 {
	if t := d.BusyNs + d.IdleNs; t > 0 {
		return d.BusyNs / t
	}
	return 0
}

// inlineShare is the fraction of chunk requests run inline by the
// submitter because the queue was full.
func (d poolDelta) inlineShare() float64 {
	if t := d.Submitted + d.Inline; t > 0 {
		return d.Inline / t
	}
	return 0
}

// provenance identifies the machine, toolchain and source a run
// measured. Runs are comparable only when NProc and GOMAXPROCS agree.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func newProvenance(root, workload string, seed int64, seconds, trace int) provenance {
	return provenance{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     gitCommit(root),
		SourceHash: sourceHash(root),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly (no git process, and
// nothing above root is consulted). A checkout without .git reports
// "unknown"; the source hash still identifies the code.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceHash digests every .go file and go.mod under root (skipping
// hidden directories such as .git and .bench_build) in path order, so
// two runs of the same source agree whether or not they ran in a git
// checkout.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuSample is the machine-wide CPU time counters of /proc/stat at one
// moment, in clock ticks: steal is time the hypervisor ran other guests
// while this one's CPUs wanted to run, total is every state's time.
type cpuSample struct {
	at           time.Time
	steal, total uint64
}

// readCPU parses the aggregate "cpu" line of /proc/stat. ok is false
// where the file is missing or its layout unknown.
func readCPU() (s cpuSample, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return s, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return s, false
		}
		s.total += n
		if i == 7 {
			s.steal = n
		}
	}
	s.at = time.Now()
	return s, true
}

// cpuSampleEvery is the CPU counters' sampling period: ten samples per
// one-second window, against a counter resolution of 10 ms per CPU.
const cpuSampleEvery = 100 * time.Millisecond

// sampleCPU samples the CPU counters every cpuSampleEvery, and once
// more when stop is closed, and returns the samples.
func sampleCPU(stop <-chan struct{}) []cpuSample {
	var out []cpuSample
	take := func() {
		if s, ok := readCPU(); ok {
			out = append(out, s)
		}
	}
	take()
	tick := time.NewTicker(cpuSampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			take()
			return out
		case <-tick.C:
			take()
		}
	}
}

// stealShare is the steal share of CPU time between from and to,
// measured from the last sample at or before from to the first at or
// after to (the nearest ones when the samples do not reach that far).
// It is 0 without two distinct samples.
func stealShare(samples []cpuSample, from, to time.Time) float64 {
	if len(samples) < 2 {
		return 0
	}
	i := 0
	for i+1 < len(samples) && !samples[i+1].at.After(from) {
		i++
	}
	j := len(samples) - 1
	for j-1 > i && !samples[j-1].at.Before(to) {
		j--
	}
	if j <= i {
		return 0
	}
	a, b := samples[i], samples[j]
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
