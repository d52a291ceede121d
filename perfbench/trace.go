package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/multi"
	"repro/internal/prefilter"
	"repro/internal/serve"
	"repro/internal/syntax"
	"repro/sfa"
)

// The ladder's rungs, outermost first. Every request body goes through
// each rung in turn; a rung's self time is its time minus the time of
// the rung below it on the same body.
var rungs = []string{"http", "handler", "board", "rulestream", "matchmask", "engine", "prefilter"}

// streamChunk is the write size of the in-process stream rungs: the
// server's own body-read buffer, so they see the chunking HTTP does.
const streamChunk = 64 << 10

// maxLadderRequests caps the span buffer of a traced run.
const maxLadderRequests = 20000

// span is one timed call. Spans of one body share req; a rung's parent
// is the body's "request" span, and a rung's sub-calls name the rung.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(req, parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) int64 {
	s := &t.spans[i]
	s.End = time.Since(t.t0).Nanoseconds()
	return s.End - s.Start
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers is every in-process object the ladder calls into, built from
// the same definitions as the server's ids tenant.
type layers struct {
	handler http.Handler
	board   *serve.Ruleboard
	rs      *sfa.RuleSet
	// p1 is ids as multi.Compile plans it, decoded without the prefilter
	// so every shard's engine walks every body, one chunk per pass. blob
	// and keys decode it again at two chunks per pass for the speedup.
	p1      *multi.Set
	blob    []byte
	keys    []string
	matcher *prefilter.Matcher
	names   []string // rule names in mask-bit order
}

// parseIDS runs the front end package sfa runs for a search-mode rule
// set: parse with the rule's flags, extract literals from the rule as
// written, then bracket for substring search. defs must be in name
// order, the order sfa reports rules in.
func parseIDS(defs []sfa.RuleDef) (nodes []*syntax.Node, infos []prefilter.Rule, keys []string, err error) {
	for _, d := range defs {
		node, err := syntax.Parse(d.Pattern, syntaxFlags(d.Flags))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("rule %s: %w", d.Name, err)
		}
		infos = append(infos, prefilter.Extract(node, true))
		nodes = append(nodes, syntax.BracketForSearch(node))
		keys = append(keys, fmt.Sprintf("%d\x00%s", d.Flags, d.Pattern))
	}
	return nodes, infos, keys, nil
}

func syntaxFlags(f sfa.Flag) syntax.Flags {
	var out syntax.Flags
	if f&sfa.FoldCase != 0 {
		out |= syntax.FoldCase
	}
	if f&sfa.DotAll != 0 {
		out |= syntax.DotAll
	}
	return out
}

func newLayers(defs []sfa.RuleDef, rep *report) (*layers, error) {
	// The engine rung's set first, so its construction garbage is gone
	// before the serving stack is built beside it.
	sorted := slices.Clone(defs)
	slices.SortFunc(sorted, func(a, b sfa.RuleDef) int { return strings.Compare(a.Name, b.Name) })
	nodes, infos, keys, err := parseIDS(sorted)
	if err != nil {
		return nil, err
	}
	set, err := multi.Compile(nodes, multi.Options{Prefilter: infos, Keys: keys, Threads: 1})
	if err != nil {
		return nil, err
	}
	var states int
	for _, sh := range set.Shards() {
		states += sh.SFAStates
	}
	rep.set("multi.dsfa_states", float64(states), "count", set.NumShards())
	rep.set("multi.table_mb", float64(set.TableBytes())/(1<<20), "MB", set.NumShards())
	var blob bytes.Buffer
	if err := set.Encode(&blob, keys); err != nil {
		return nil, err
	}
	L := &layers{blob: blob.Bytes(), keys: keys}
	set = nil
	debug.FreeOSMemory()
	if L.p1, err = multi.DecodeSet(bytes.NewReader(L.blob), keys, multi.Options{Threads: 1}); err != nil {
		return nil, err
	}

	hub := serve.NewHub(sfa.WithThreads(0), sfa.WithSearch())
	if _, L.board, _, err = hub.SetRules("ids", defs); err != nil {
		return nil, err
	}
	L.handler = serve.NewHandler(hub)
	L.rs = L.board.RuleSet()
	L.names = L.rs.Names()

	var lits []string
	seen := map[string]bool{}
	for _, inf := range infos {
		for _, l := range inf.Lits {
			if !seen[l] {
				seen[l] = true
				lits = append(lits, l)
			}
		}
	}
	sort.Strings(lits)
	L.matcher = prefilter.NewMatcher(lits)
	debug.FreeOSMemory()
	return L, nil
}

// ladderTotals accumulates what the ladder measured across bodies.
type ladderTotals struct {
	rung      [][]int64 // rung index → per-request ns
	newStream []int64   // RuleSet.NewStream ns
	writeNs   int64     // RuleStream.Write ns
	bytes     int64     // body bytes per rung pass
	matchNs   int64     // RuleSet.MatchMask ns
	engineNs  int64     // all shards at p=1 ns
	prefNs    int64     // Matcher.AppendHits ns
	hits      int64
	stream    sfa.StreamStats // summed over the rulestream rung
	requests  int
	failed    int
	checks    int
}

// runLadder sends bodies through every rung until d has passed. It
// returns the spans and the totals; a verdict that differs from the
// oracle at any rung is a failure.
func runLadder(base string, L *layers, bodies [][]byte, o *oracle, d time.Duration) (*tracer, ladderTotals) {
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
	tot := ladderTotals{rung: make([][]int64, len(rungs))}
	conn := newScanConn(base)
	defer conn.close()
	mask := make([]uint64, L.rs.MaskWords())
	emask := make([]uint64, L.p1.Words())
	var hits []prefilter.Hit
	deadline := time.Now().Add(d)
	check := func(i int, got []string) {
		tot.checks++
		if !o.matches(i, got) {
			tot.failed++
		}
	}
	for req := 1; time.Now().Before(deadline) && req <= maxLadderRequests; req++ {
		i := (req - 1) % len(bodies)
		body := bodies[i]
		root := tr.begin(req, 0, "request")
		rootID := tr.spans[root].ID
		timed := func(r int, f func()) {
			s := tr.begin(req, rootID, rungs[r])
			f()
			tot.rung[r] = append(tot.rung[r], tr.end(s))
		}

		timed(0, func() {
			got, err := conn.scan(body)
			if err != nil {
				got = []string{"transport error: " + err.Error()}
			}
			check(i, got)
		})
		timed(1, func() {
			rec := httptest.NewRecorder()
			L.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants/ids/scan", bytes.NewReader(body)))
			var reply serve.ScanReply
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &reply) != nil {
				reply.Matches = []string{fmt.Sprintf("status %d", rec.Code)}
			}
			check(i, reply.Matches)
		})
		timed(2, func() {
			st, err := L.board.NewStream()
			if err != nil {
				check(i, []string{err.Error()})
				return
			}
			for p := 0; p < len(body); p += streamChunk {
				st.Write(body[p:min(p+streamChunk, len(body))])
			}
			check(i, st.Names())
			st.Close()
		})
		timed(3, func() {
			parent := tr.spans[len(tr.spans)-1].ID
			s := tr.begin(req, parent, "rulestream.newstream")
			st, err := L.rs.NewStream()
			tot.newStream = append(tot.newStream, tr.end(s))
			if err != nil {
				check(i, []string{err.Error()})
				return
			}
			s = tr.begin(req, parent, "rulestream.write")
			for p := 0; p < len(body); p += streamChunk {
				st.Write(body[p:min(p+streamChunk, len(body))])
			}
			tot.writeNs += tr.end(s)
			check(i, st.Matches())
			ss := st.Stats()
			tot.stream.ComposeNs += ss.ComposeNs
			tot.stream.PrefilterNs += ss.PrefilterNs
			tot.stream.ShardChunksScanned += ss.ShardChunksScanned
			tot.stream.ShardChunksSkipped += ss.ShardChunksSkipped
		})
		timed(4, func() {
			t0 := time.Now()
			m := L.rs.MatchMask(body, mask)
			tot.matchNs += time.Since(t0).Nanoseconds()
			check(i, L.rs.MaskNames(m))
		})
		timed(5, func() {
			t0 := time.Now()
			m := L.p1.Scan(body, 1, emask)
			tot.engineNs += time.Since(t0).Nanoseconds()
			check(i, maskNames(m, L.names))
		})
		timed(6, func() {
			t0 := time.Now()
			hits = L.matcher.AppendHits(hits[:0], body)
			tot.prefNs += time.Since(t0).Nanoseconds()
			tot.hits += int64(len(hits))
		})
		tr.end(root)
		tot.bytes += int64(len(body))
		tot.requests++
	}
	return tr, tot
}

// maskNames decodes a rule bitmask against names in bit order.
func maskNames(mask []uint64, names []string) []string {
	out := []string{}
	for i, n := range names {
		if mask[i>>6]&(1<<(i&63)) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// medianNs is the median of a []int64 of nanoseconds, in ns.
func medianNs(xs []int64) float64 {
	p50, _, _ := latencies(xs).summary(50)
	return float64(p50)
}

func runTraced(cfg config, w *workload, rep *report) error {
	s, _, err := bootOnce(cfg, w)
	if err != nil {
		return err
	}
	defer s.stop()
	half := max(time.Second, time.Duration(cfg.seconds)*time.Second/2)
	quarter := max(time.Second, half/2)

	// 1. The workload untraced, with the engine pools' counters scraped
	// around it.
	warm := scanLoop(s.base, w.bodies, w.oracle, w.conns, closeAfter(warmup))
	rep.count(warm.attempted, warm.failed)
	before, err := scrapeProm(s.base)
	if err != nil {
		return err
	}
	sr, up, err := drive(s.base, w, w.uploads[:uploadsFor(half)], half)
	if err != nil {
		return err
	}
	rep.count(sr.attempted+up.attempted, sr.failed+up.failed)
	after, err := scrapeProm(s.base)
	if err != nil {
		return err
	}
	match, build := poolDeltas(before, after, "match"), poolDeltas(before, after, "build")
	rep.set("engine.match_pool_busy_share", match.busyShare(), "ratio", 1)
	rep.set("engine.match_pool_inline_share", match.inlineShare(), "ratio", int(match.Submitted+match.Inline))
	rep.set("engine.build_pool_busy_share", build.busyShare(), "ratio", 1)

	// 2. One untraced connection, the ladder's HTTP shape, as the
	// baseline of the tracing overhead.
	base1 := scanLoop(s.base, w.bodies, w.oracle, 1, closeAfter(quarter))
	rep.count(base1.attempted, base1.failed)

	// 3. The ladder.
	debug.FreeOSMemory()
	L, err := newLayers(w.defs, rep)
	if err != nil {
		return err
	}
	tr, tot := runLadder(s.base, L, w.bodies, w.oracle, half)
	rep.count(tot.checks, tot.failed)
	if tot.requests == 0 {
		return fmt.Errorf("ladder ran no requests")
	}
	spanPath := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.write(spanPath); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans over %d requests written to %s\n", len(tr.spans), tot.requests, spanPath)
	reportLadder(rep, tot, L)
	// The server's own account of the ladder's HTTP requests, beside the
	// ladder's rungs; reported only.
	flight, err := flightRecords(s.base, tot.requests)
	if err != nil {
		return err
	}
	fmt.Println(flightSplit(flight))
	fmt.Printf("ladder (medians): http %.1f µs, handler %.1f µs, board %.1f µs, rulestream %.1f µs\n",
		medianNs(tot.rung[0])/1e3, medianNs(tot.rung[1])/1e3, medianNs(tot.rung[2])/1e3, medianNs(tot.rung[3])/1e3)
	httpP50, basP50 := medianNs(tot.rung[0]), medianNs(base1.lat)
	rep.set("trace.overhead_share", (httpP50-basP50)/basP50, "ratio", tot.requests)

	// 4. The paper's quantity: every shard's engine at two chunks per
	// pass against one, on the same bodies. The in-process serving stack
	// goes first, so only the two engine sets are resident.
	p1, blob, keys := L.p1, L.blob, L.keys
	debug.FreeOSMemory()
	p2, err := multi.DecodeSet(bytes.NewReader(blob), keys, multi.Options{Threads: 2})
	if err != nil {
		return err
	}
	speedup, passes := p2Speedup(p1, p2, w.bodies, time.Second)
	rep.set("engine.p2_speedup", speedup, "ratio", passes)
	debug.FreeOSMemory()

	// 5. The build side, on the first tenants of the upload sequence.
	if err := reportBuild(rep, w.uploads[:buildTenants]); err != nil {
		return err
	}
	if rss, err := selfPeakRSSMB(); err == nil {
		fmt.Printf("perfbench peak RSS %.0f MB\n", rss)
	}
	return nil
}

// reportLadder sets the scan-side layer metrics from the ladder totals.
func reportLadder(rep *report, tot ladderTotals, L *layers) {
	n := tot.requests
	mb := float64(tot.bytes) / 1e6
	rep.set("serve.handler_us", medianNs(tot.rung[1])/1e3, "us", n)
	rep.set("serve.board_us", medianNs(tot.rung[2])/1e3, "us", n)
	rep.set("sfa.newstream_us", medianNs(tot.newStream)/1e3, "us", n)
	rep.set("sfa.newstream_bytes", newStreamBytes(L.rs), "B", 64)
	rep.set("sfa.write_mb_s", mb/(float64(tot.writeNs)/1e9), "MB/s", n)
	rep.set("sfa.matchmask_mb_s", mb/(float64(tot.matchNs)/1e9), "MB/s", n)
	share := 0.0
	if tot.stream.ComposeNs > 0 {
		share = float64(tot.stream.PrefilterNs) / float64(tot.stream.ComposeNs)
	}
	rep.set("multi.prefilter_share", share, "ratio", n)
	skip := 0.0
	if t := tot.stream.ShardChunksScanned + tot.stream.ShardChunksSkipped; t > 0 {
		skip = float64(tot.stream.ShardChunksSkipped) / float64(t)
	}
	rep.set("multi.shard_skip_ratio", skip, "ratio", n)
	rep.set("prefilter.mb_s", mb/(float64(tot.prefNs)/1e9), "MB/s", n)
	rep.set("prefilter.hits_per_mb", float64(tot.hits)/mb, "count", n)
	rep.set("engine.walk_mb_s", mb*float64(L.p1.NumShards())/(float64(tot.engineNs)/1e9), "MB/s", n)
	fmt.Println("ladder self times (median over requests, rung minus the rung below):")
	for r, name := range rungs {
		self := make([]int64, n)
		for k := range self {
			self[k] = tot.rung[r][k]
			if r+1 < len(rungs) {
				self[k] -= tot.rung[r+1][k]
			}
		}
		v := medianNs(self) / 1e3
		rep.set("ladder."+name+"_self_us", v, "us", n)
	}
}

// flightSplit summarizes the server's own flight-recorder records of
// the ids tenant: the medians of its read, prefilter, compose and match
// stage times.
func flightSplit(fl serve.FlightReply) string {
	var read, pref, comp, match []int64
	for _, r := range fl.Records {
		if r.Tenant == "ids" {
			read, pref = append(read, r.ReadNs), append(pref, r.PrefilterNs)
			comp, match = append(comp, r.ComposeNs), append(match, r.MatchNs)
		}
	}
	if len(read) == 0 {
		return "flight recorder: no ids records"
	}
	return fmt.Sprintf("flight recorder (/debug/scans, %d scans, medians): read %.1f µs, prefilter %.1f µs, compose %.1f µs, match %.1f µs",
		len(read), medianNs(read)/1e3, medianNs(pref)/1e3, medianNs(comp)/1e3, medianNs(match)/1e3)
}

// printFlight prints the server's flight-recorder split of its last
// scans beside the client-side median of an end-to-end run. The
// cross-check is reported only and gates nothing.
func printFlight(base string, sr scanResult) {
	fl, err := flightRecords(base, 256)
	if err != nil {
		fmt.Printf("flight recorder: %v\n", err)
		return
	}
	fmt.Printf("%s; client p50 %.1f µs\n", flightSplit(fl), medianNs(sr.lat)/1e3)
}

// newStreamBytes is the heap RuleSet.NewStream allocates per call.
func newStreamBytes(rs *sfa.RuleSet) float64 {
	const n = 64
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if _, err := rs.NewStream(); err != nil {
			return 0
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / n
}

// p2Speedup times p1 and p2 (the same shards at one and at two chunks
// per pass) on each body in turn, alternating, for about d each. It
// returns the p=1 time over the p=2 time and the number of passes.
func p2Speedup(p1, p2 *multi.Set, bodies [][]byte, d time.Duration) (float64, int) {
	dst := make([]uint64, p1.Words())
	var t1, t2 time.Duration
	i := 0
	for ; t1+t2 < 2*d; i++ {
		b := bodies[i%len(bodies)]
		t0 := time.Now()
		p1.Scan(b, 1, dst)
		t1 += time.Since(t0)
		t0 = time.Now()
		p2.Scan(b, 1, dst)
		t2 += time.Since(t0)
	}
	return t1.Seconds() / t2.Seconds(), i
}

// buildTenants is how many upload-sequence tenants the traced run
// builds in process for the build-side layer metrics.
const buildTenants = 3

// reportBuild sets the build-side layer metrics: per rule of the first
// upload tenants, parse, DFA and D-SFA construction; per tenant, a
// cold Hub.SetRules with its BuildReport phases and the heap peak of
// sfa.NewRuleSetFromDefs.
func reportBuild(rep *report, tenants [][]sfa.RuleDef) error {
	var parse, dfaNs, dsfaNs, states []int64
	for _, t := range tenants {
		for _, d := range t {
			t0 := time.Now()
			node, err := syntax.Parse(d.Pattern, syntaxFlags(d.Flags))
			parse = append(parse, time.Since(t0).Nanoseconds())
			if err != nil {
				return fmt.Errorf("rule %s: %w", d.Name, err)
			}
			t0 = time.Now()
			raw, err := dfa.Compile(syntax.BracketForSearch(node), 0)
			if err != nil {
				return fmt.Errorf("rule %s: %w", d.Name, err)
			}
			m := dfa.Minimize(raw)
			dfaNs = append(dfaNs, time.Since(t0).Nanoseconds())
			t0 = time.Now()
			s, err := core.BuildDSFA(m, 0)
			if err != nil {
				return fmt.Errorf("rule %s: %w", d.Name, err)
			}
			dsfaNs = append(dsfaNs, time.Since(t0).Nanoseconds())
			states = append(states, int64(s.LiveSize()))
		}
	}
	n := len(parse)
	rep.set("syntax.parse_us", medianNs(parse)/1e3, "us", n)
	rep.set("dfa.build_ms", medianNs(dfaNs)/1e6, "ms", n)
	rep.set("core.dsfa_build_ms", medianNs(dsfaNs)/1e6, "ms", n)
	rep.set("core.dsfa_states", medianNs(states), "count", n)

	hub := serve.NewHub(sfa.WithThreads(0), sfa.WithSearch())
	var setRules, prep, build, heap []int64
	for i, t := range tenants {
		runtime.GC()
		name := fmt.Sprintf("cold-%d", i)
		t0 := time.Now()
		_, b, _, err := hub.SetRules(name, t)
		if err != nil {
			return err
		}
		setRules = append(setRules, time.Since(t0).Nanoseconds())
		br := b.RuleSet().BuildReport()
		prep, build = append(prep, br.PrepNs), append(build, br.BuildNs)
		hub.Delete(name)
		runtime.GC()
		peak, err := heapPeak(func() error {
			_, err := sfa.NewRuleSetFromDefs(t, sfa.WithSearch())
			return err
		})
		if err != nil {
			return err
		}
		heap = append(heap, peak)
	}
	n = len(tenants)
	rep.set("serve.setrules_ms", medianNs(setRules)/1e6, "ms", n)
	rep.set("multi.build_prep_ms", medianNs(prep)/1e6, "ms", n)
	rep.set("multi.build_ms", medianNs(build)/1e6, "ms", n)
	rep.set("build.heap_peak_mb", medianNs(heap)/(1<<20), "MB", n)
	return nil
}

// heapPeak runs f while sampling the live heap every millisecond and
// returns the peak growth over the heap f started from, in bytes.
func heapPeak(f func() error) (int64, error) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() int64 {
		metrics.Read(sample)
		return int64(sample[0].Value.Uint64())
	}
	base := read()
	var peak int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, read()-base)
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	err := f()
	close(stop)
	wg.Wait()
	return peak, err
}
