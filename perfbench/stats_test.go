package main

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		sorted []int64
		p      float64
		want   int64
	}{
		{ten, 10, 1},
		{ten, 50, 5},
		{ten, 51, 6},
		{ten, 90, 9},
		{ten, 99, 10},
		{ten, 100, 10},
		{[]int64{7}, 50, 7},
		{[]int64{7}, 99, 7},
		{nil, 50, 0},
	} {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %d, want %d", c.sorted, c.p, got, c.want)
		}
	}
}

func TestSummaryCountsSamplesBeyondPercentile(t *testing.T) {
	var l latencies
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		l = append(l, int64(i))
	}
	p50, p99, beyond := l.summary(99)
	if p50 != 500 || p99 != 990 || beyond != 10 {
		t.Fatalf("summary(99) = %d, %d, %d beyond; want 500, 990, 10", p50, p99, beyond)
	}
	if l[0] != 1000 {
		t.Fatal("summary sorted the caller's samples")
	}
	// Ties at the percentile are not beyond it.
	_, p99, beyond = latencies{5, 5, 5, 5}.summary(99)
	if p99 != 5 || beyond != 0 {
		t.Fatalf("all-equal samples: p99 %d with %d beyond, want 5 with 0", p99, beyond)
	}
}

func TestScanStatsSkipWindowsWithSteal(t *testing.T) {
	// 4000 requests over 4 s, 1 ms each, except in the third second,
	// when the hypervisor took a quarter of the CPU time and requests
	// took 10 ms. The figures come from the three windows without steal.
	start := time.Unix(1000, 0)
	r := scanResult{start: start, elapsed: 4 * time.Second}
	for i := 0; i < 4000; i++ {
		ns := int64(time.Millisecond)
		if i >= 2000 && i < 3000 {
			ns *= 10
		}
		r.lat = append(r.lat, ns)
		r.end = append(r.end, int64(i)*int64(time.Millisecond))
		r.size = append(r.size, 100)
	}
	for sec, steal := range []uint64{0, 0, 0, 50, 50} {
		r.cpu = append(r.cpu, cpuSample{at: start.Add(time.Duration(sec) * time.Second), steal: steal, total: uint64(sec) * 200})
	}
	st := stats(r)
	if st.windows != 3 || st.samples != 4000 {
		t.Fatalf("windows %d, samples %d; want 3, 4000", st.windows, st.samples)
	}
	if st.p50 != float64(time.Millisecond) || st.p99 != float64(time.Millisecond) {
		t.Fatalf("p50 %v p99 %v, want 1ms each", st.p50, st.p99)
	}
	if st.rps != 1000 || st.mbps != 0.1 {
		t.Fatalf("rps %v MB/s %v, want 1000 and 0.1", st.rps, st.mbps)
	}
	if st.quietSteal != 0 || st.steal != 50.0/800 {
		t.Fatalf("steal %v over the run, %v in the windows used; want 0.0625 and 0", st.steal, st.quietSteal)
	}
	// Without steal every window is used: the slow second's p50 and p99
	// are the highest of four, so the medians stay at 1 ms.
	r.cpu = nil
	if st := stats(r); st.windows != 4 || st.steal != 0 || st.p50 != float64(time.Millisecond) {
		t.Fatalf("no samples: %d windows, steal %v, p50 %v", st.windows, st.steal, st.p50)
	}
}

func TestScanStatsPoolPhases(t *testing.T) {
	// Two 2-s phases of two servers, 1 ms and 3 ms a request: the
	// figures come from the four windows of both.
	phase := func(start time.Time, ms int64) scanResult {
		r := scanResult{start: start, elapsed: 2 * time.Second}
		n := 2000 / ms
		for i := int64(0); i < n; i++ {
			r.lat = append(r.lat, ms*int64(time.Millisecond))
			r.end = append(r.end, (i+1)*ms*int64(time.Millisecond)-1)
			r.size = append(r.size, 10)
		}
		return r
	}
	t0 := time.Unix(1000, 0)
	st := stats(phase(t0, 1), phase(t0.Add(time.Minute), 3))
	if st.windows != 4 || st.samples != 2000+666 {
		t.Fatalf("windows %d, samples %d; want 4, 2666", st.windows, st.samples)
	}
	// Window p50s are 1, 1, 3, 3 ms; their median is 2 ms.
	if st.p50 != float64(2*time.Millisecond) {
		t.Fatalf("p50 %v, want 2ms", st.p50)
	}
	if st := stats(); st.samples != 0 || st.windows != 0 {
		t.Fatalf("no phases: %+v", st)
	}
}

func TestQuietBoots(t *testing.T) {
	// Steal under the floor never drops a boot; above it a boot is kept
	// only when it is at most the median boot's.
	all := []boot{{10, 9, 0}, {20, 19, 0.005}, {30, 29, 0.3}, {40, 39, 0.002}}
	setup, put, steal := quietBoots(all)
	if !slices.Equal(setup, latencies{10, 20, 40}) || !slices.Equal(put, latencies{9, 19, 39}) || steal != 0.005 {
		t.Fatalf("kept setup %v put %v steal %v", setup, put, steal)
	}
	all = []boot{{10, 9, 0.05}, {20, 19, 0.1}, {30, 29, 0.2}}
	if setup, _, steal = quietBoots(all); !slices.Equal(setup, latencies{10, 20}) || steal != 0.1 {
		t.Fatalf("kept %v steal %v, want the two quieter boots", setup, steal)
	}
}

func TestStealShare(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := []cpuSample{{at(0), 0, 0}, {at(100), 5, 20}, {at(200), 5, 40}, {at(300), 15, 60}}
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{0, 300, 15.0 / 60},
		{100, 200, 0},
		{150, 250, 10.0 / 40}, // widens to the samples around the interval
		{200, 300, 10.0 / 20},
		{-50, 1000, 15.0 / 60},
	} {
		if got := stealShare(s, at(c.from), at(c.to)); got != c.want {
			t.Errorf("stealShare(%d..%d ms) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := stealShare(s[:1], at(0), at(300)); got != 0 {
		t.Errorf("one sample: %v, want 0", got)
	}
}

const promScrape = `# HELP sfa_pool_busy_ns_total Worker wall time executing requests.
# TYPE sfa_pool_busy_ns_total counter
sfa_pool_busy_ns_total{pool="match"} 1000
sfa_pool_busy_ns_total{pool="build"} 50
sfa_pool_idle_ns_total{pool="match"} 3000
sfa_pool_idle_ns_total{pool="build"} 950
sfa_pool_submitted_total{pool="match"} 90
sfa_pool_inline_total{pool="match"} 10
sfa_build_info{commit="a b",go_version="go1.24"} 1
go_goroutines 12
`

func TestPromSamplesAndPoolDeltas(t *testing.T) {
	before, err := promSamples(strings.NewReader(promScrape))
	if err != nil {
		t.Fatal(err)
	}
	if v := before[`sfa_build_info{commit="a b",go_version="go1.24"}`]; v != 1 {
		t.Fatalf("label value with a space: got %v, want 1", v)
	}
	if v := before["go_goroutines"]; v != 12 {
		t.Fatalf("unlabelled series: got %v, want 12", v)
	}
	after, err := promSamples(strings.NewReader(strings.NewReplacer(
		`busy_ns_total{pool="match"} 1000`, `busy_ns_total{pool="match"} 4000`,
		`idle_ns_total{pool="match"} 3000`, `idle_ns_total{pool="match"} 4000`,
		`submitted_total{pool="match"} 90`, `submitted_total{pool="match"} 180`,
		`inline_total{pool="match"} 10`, `inline_total{pool="match"} 30`,
	).Replace(promScrape)))
	if err != nil {
		t.Fatal(err)
	}
	m := poolDeltas(before, after, "match")
	if m != (poolDelta{Submitted: 90, Inline: 20, BusyNs: 3000, IdleNs: 1000}) {
		t.Fatalf("match delta %+v", m)
	}
	if m.busyShare() != 0.75 {
		t.Fatalf("busy share %v, want 0.75", m.busyShare())
	}
	if got := m.inlineShare(); got != 20.0/110 {
		t.Fatalf("inline share %v, want %v", got, 20.0/110)
	}
	// An idle pool (no movement) reports zero shares, not NaN.
	if b := poolDeltas(before, before, "build"); b.busyShare() != 0 || b.inlineShare() != 0 {
		t.Fatalf("no-movement shares %v %v, want 0", b.busyShare(), b.inlineShare())
	}
	for _, bad := range []string{"sfa_x{pool=\"match\" 1\n", "sfa_x notanumber\n", "sfa_x\n"} {
		if _, err := promSamples(strings.NewReader(bad)); err == nil {
			t.Errorf("promSamples(%q) accepted a malformed line", bad)
		}
	}
}

func TestCompareRefusesDifferentCoreCounts(t *testing.T) {
	a := provenance{Workload: "lines", NProc: 2, GOMAXPROCS: 2}
	if err := comparable(a, a); err != nil {
		t.Fatalf("identical provenance refused: %v", err)
	}
	for _, b := range []provenance{
		{Workload: "lines", NProc: 4, GOMAXPROCS: 2},
		{Workload: "lines", NProc: 2, GOMAXPROCS: 1},
	} {
		if err := comparable(a, b); err == nil {
			t.Errorf("compared %+v with %+v", a, b)
		}
	}
}

func TestReportRefusesNonFiniteMetrics(t *testing.T) {
	var out strings.Builder
	rep := newReport(&out)
	rep.count(1, 0)
	rep.set("x", math.Inf(1), "ratio", 1)
	if code := rep.finish(); code != 2 {
		t.Fatalf("exit code %d for an infinite metric, want 2", code)
	}
	if strings.Contains(out.String(), "{") {
		t.Fatalf("printed a result line: %q", out.String())
	}
}
