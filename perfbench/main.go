// Command perfbench is the repository's end-to-end benchmark: it boots
// the real cmd/sfaserve on loopback, loads the standing "ids" tenant
// (the whole snort.ScanSample corpus), drives one of three closed-loop
// workloads from this process, times every call from the client side
// and checks every verdict against an isolated-rules oracle. With
// -trace 1 it instead runs the per-layer ladder: the same seeded bodies
// through every public layer from HTTP down to the prefilter, one span
// per call. See README.md.
//
//	bash perfbench/run.sh --workload all --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh compare old.log new.log
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/serve"
	"repro/sfa"
)

// segments is how many parts a run's measured time is cut into. Each
// part boots its own server from a fresh process, loads ids, warms up
// and drives the workload for its share of the time; the run's figures
// pool the parts. Spread over the run, the boots do not all fall into
// one busy spell of the shared host, and pooling several server
// processes evens out what differs from one process to the next.
const segments = 4

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics and prints each by name, unit and
// sample count as it is set.
type report struct {
	w   io.Writer
	res result
}

func newReport(w io.Writer) *report {
	return &report{w: w, res: result{Metrics: map[string]metric{}}}
}

func (r *report) set(name string, v float64, unit string, samples int) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "metric %-32s %14.4f %-6s n=%d\n", name, v, unit, samples)
}

func (r *report) count(attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// failedShare is failed operations over attempted ones.
func (r *report) failedShare() float64 {
	if r.res.Attempted == 0 {
		return 0
	}
	return float64(r.res.Failed) / float64(r.res.Attempted)
}

// finish prints failed_share and the result line and returns the exit
// code: 1 when any operation failed, 2 when a metric is not a finite
// number (JSON cannot carry it, so no result line is printed).
func (r *report) finish() int {
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	fmt.Fprintf(r.w, "failed_share %.6f (%d of %d operations)\n", r.failedShare(), r.res.Failed, r.res.Attempted)
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result: %v\n", err)
		return 2
	}
	fmt.Fprintln(r.w, string(line))
	if !r.res.Correct {
		return 1
	}
	return 0
}

type config struct {
	server   string
	workload string
	seed     int64
	seconds  int
	trace    int
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var cfg config
	flag.StringVar(&cfg.server, "server", "", "sfaserve binary to boot")
	flag.StringVar(&cfg.workload, "workload", "", "lines, bulk, upload, or all (the three in turn)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer ladder")
	flag.Parse()
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloads
	}
	code := 0
	for _, name := range names {
		cfg.workload = name
		c, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(2)
		}
		code = max(code, c)
	}
	os.Exit(code)
}

// workloads names every workload, in the order -workload all runs them.
var workloads = []string{"lines", "bulk", "upload"}

func run(cfg config) (int, error) {
	switch {
	case cfg.server == "":
		return 0, errors.New("-server is required")
	case cfg.seconds < 1:
		return 0, fmt.Errorf("-seconds %d: want at least 1", cfg.seconds)
	case cfg.trace != 0 && cfg.trace != 1:
		return 0, fmt.Errorf("-trace %d: want 0 or 1", cfg.trace)
	}
	if _, err := os.Stat(cfg.server); err != nil {
		return 0, err
	}
	w, err := newWorkload(cfg.workload, cfg.seed, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		return 0, err
	}
	prov, _ := json.Marshal(newProvenance(".", cfg.workload, cfg.seed, cfg.seconds, cfg.trace))
	fmt.Printf("provenance %s\n", prov)

	rep := newReport(os.Stdout)
	if cfg.trace == 1 {
		err = runTraced(cfg, w, rep)
	} else {
		err = runEndToEnd(cfg, w, rep)
	}
	if err != nil {
		return 0, err
	}
	return rep.finish(), nil
}

// workload is one run's seeded inputs and their expected verdicts.
type workload struct {
	name      string
	defs      []sfa.RuleDef // the ids tenant
	rulesText string        // defs in the PUT wire format
	bodies    [][]byte      // scan bodies (lines for lines and upload)
	conns     int           // scan connections
	uploads   [][]sfa.RuleDef
	oracle    *oracle
}

func newWorkload(name string, seed int64, d time.Duration) (*workload, error) {
	w := &workload{name: name, defs: idsDefs()}
	switch name {
	case "lines":
		w.bodies, w.conns = trafficLines(seed), 2
	case "bulk":
		w.bodies, w.conns = bulkCorpus(seed), 1
	case "upload":
		w.bodies, w.conns = trafficLines(seed), 1
	default:
		return nil, fmt.Errorf("-workload %q: want one of %v or all", name, workloads)
	}
	// Every workload carries the upload plan: the traced run's build-side
	// layer metrics use its first tenants.
	var err error
	if w.uploads, err = uploadPlan(w.defs, seed, max(segments*uploadsFor(d/segments), uploadsFor(d))); err != nil {
		return nil, err
	}
	text, err := serve.FormatRules(w.defs)
	if err != nil {
		return nil, err
	}
	w.rulesText = text
	// The oracle is computed before any timing and outside setup_s.
	if w.oracle, err = newOracle(w.defs, w.bodies); err != nil {
		return nil, err
	}
	return w, nil
}

// boot is one server start: the set-up time (process start until ids
// was loaded), the ids PUT alone, both in ns, and the machine's steal
// share meanwhile.
type boot struct {
	setup, put int64
	steal      float64
}

// bootOnce starts a server from a fresh process and loads ids.
func bootOnce(cfg config, w *workload) (*server, boot, error) {
	// Each boot starts from a collected heap so one boot's garbage in
	// this process does not tax the next one's timing.
	runtime.GC()
	var cpu []cpuSample
	if c, ok := readCPU(); ok {
		cpu = append(cpu, c)
	}
	s, setup, put, err := bootIDS(cfg.server, w.rulesText, len(w.defs))
	if err != nil {
		return nil, boot{}, err
	}
	if c, ok := readCPU(); ok {
		cpu = append(cpu, c)
	}
	return s, boot{setup.Nanoseconds(), put.Nanoseconds(), stealShare(cpu, time.Time{}, time.Now())}, nil
}

// bootStealFloor is the steal share below which a boot counts as quiet
// whatever the other boots saw: a steal of 1% costs a 2-s build about
// 20 ms, while one build differs from the next by ten times that.
const bootStealFloor = 0.01

// quietBoots keeps, like the scan windows, the boots whose steal share
// is at most the median boot's (or below bootStealFloor), so a boot the
// hypervisor starved does not set the figure. It returns their timings
// and highest steal share.
func quietBoots(all []boot) (setup, put latencies, steal float64) {
	steals := make([]float64, len(all))
	for i, b := range all {
		steals[i] = b.steal
	}
	quiet := max(medianFloat(steals), bootStealFloor)
	for _, b := range all {
		if b.steal <= quiet {
			setup, put = append(setup, b.setup), append(put, b.put)
			steal = max(steal, b.steal)
		}
	}
	return setup, put, steal
}

// warmup is how long each segment drives its workload before timing
// starts, so connections are open and first-use allocations are done.
const warmup = time.Second

func runEndToEnd(cfg config, w *workload, rep *report) error {
	d := time.Duration(cfg.seconds) * time.Second / segments
	per := uploadsFor(d)
	var (
		boots  []boot
		phases []scanResult
		ups    uploadResult
		rss    []float64
	)
	for i := 0; i < segments; i++ {
		s, b, err := bootOnce(cfg, w)
		if err != nil {
			return err
		}
		boots = append(boots, b)
		sr, up, peak, err := segment(s, w, w.uploads[i*per:(i+1)*per], d, rep, i == segments-1)
		s.stop()
		if err != nil {
			return err
		}
		phases = append(phases, sr)
		ups.lat = append(ups.lat, up.lat...)
		rss = append(rss, peak)
	}

	setup, put, steal := quietBoots(boots)
	rep.set("setup_s", medianFloat(setup.floats())/1e9, "s", len(setup))
	fmt.Printf("  set-up figures use %d of %d boots (steal up to %.1f%%)\n", len(setup), len(boots), 100*steal)

	st := stats(phases...)
	rep.set("scan_p50_us", st.p50/1e3, "us", st.samples)
	rep.set("scan_p99_us", st.p99/1e3, "us", st.samples)
	rep.set("scan_rps", st.rps, "1/s", st.samples)
	rep.set("scan_mb_s", st.mbps, "MB/s", st.samples)
	fmt.Printf("  scan figures are medians over the %d quietest 1 s windows of %d segments (steal up to %.1f%%; %.1f%% over the run); %d samples lie beyond the run's p99\n",
		st.windows, segments, 100*st.quietSteal, 100*st.steal, st.beyondP99)
	if w.name == "upload" {
		// The writer's 8–16-rule cold tenants under concurrent scans.
		u50, u90, _ := ups.lat.summary(90)
		rep.set("upload_p50_ms", float64(u50)/1e6, "ms", len(ups.lat))
		rep.set("upload_p90_ms", float64(u90)/1e6, "ms", len(ups.lat))
	} else {
		// The only uploads are the boots' cold ids loads, the builds
		// setup_s already times; printed for reference.
		u50, u90, _ := put.summary(90)
		fmt.Printf("  ids PUT p50 %.1f ms, p90 %.1f ms over %d boots\n", float64(u50)/1e6, float64(u90)/1e6, len(put))
	}
	rep.set("peak_rss_mb", medianFloat(rss), "MB", len(rss))
	return nil
}

// segment warms the booted server up, drives the workload for d with
// plan as the upload writer's tenants, and returns what the clients saw
// and the server's peak RSS in MiB. On the last segment of lines and
// bulk it also prints the flight-recorder cross-check.
func segment(s *server, w *workload, plan [][]sfa.RuleDef, d time.Duration, rep *report, last bool) (scanResult, uploadResult, float64, error) {
	warm := scanLoop(s.base, w.bodies, w.oracle, w.conns, closeAfter(warmup))
	rep.count(warm.attempted, warm.failed)
	debug.FreeOSMemory()
	sr, up, err := drive(s.base, w, plan, d)
	if err != nil {
		return sr, up, 0, err
	}
	rep.count(sr.attempted+up.attempted, sr.failed+up.failed)
	if last && w.name != "upload" {
		printFlight(s.base, sr)
	}
	rss, err := s.peakRSSMB()
	return sr, up, rss, err
}
