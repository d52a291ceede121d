package main

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/sfa"
)

// scanResult is what one closed-loop scan phase observed from the
// client side.
type scanResult struct {
	lat       latencies // per request, ns
	end       []int64   // per request, completion time since start, ns
	size      []int64   // per request, body bytes
	attempted int
	failed    int
	start     time.Time
	elapsed   time.Duration
	cpu       []cpuSample // the machine's CPU counters over the phase
}

func (r *scanResult) add(o scanResult) {
	r.lat = append(r.lat, o.lat...)
	r.end = append(r.end, o.end...)
	r.size = append(r.size, o.size...)
	r.attempted += o.attempted
	r.failed += o.failed
}

// scanStats is one or more scan phases reduced to the reported numbers.
//
// Each phase is cut into one-second windows and each window is
// summarized on its own. On a virtual machine that shares its host, the
// hypervisor runs other guests on this one's CPUs in some seconds
// (steal time), and every request in flight then waits. Each figure is
// the median over the quieter half of the windows of all phases, ranked
// by their steal share, so it measures the program rather than its
// neighbours.
type scanStats struct {
	p50, p99   float64 // ns
	rps, mbps  float64
	samples    int
	windows    int     // windows the medians are taken over
	steal      float64 // steal share over all phases
	quietSteal float64 // highest steal share among the windows used
	beyondP99  int     // samples above the p99 of all phases
}

// window is one second of a scan phase.
type window struct {
	lat   latencies
	bytes int64
	secs  float64
	steal float64
}

// windows cuts the phase into one-second windows, each request going to
// the window it completed in.
func (r scanResult) windows() []window {
	n := max(1, int(r.elapsed/time.Second))
	span := r.elapsed.Nanoseconds() / int64(n)
	ws := make([]window, n)
	for i, ns := range r.lat {
		k := min(int(r.end[i]/span), n-1)
		ws[k].lat = append(ws[k].lat, ns)
		ws[k].bytes += r.size[i]
	}
	for k := range ws {
		from := r.start.Add(time.Duration(int64(k) * span))
		ws[k].secs = float64(span) / 1e9
		ws[k].steal = stealShare(r.cpu, from, from.Add(time.Duration(span)))
	}
	return ws
}

// stats pools the windows of the given phases and takes each figure's
// median over the quieter half of them.
func stats(phases ...scanResult) scanStats {
	var st scanStats
	var all latencies
	var ws []window
	var secs float64
	for _, r := range phases {
		all = append(all, r.lat...)
		ws = append(ws, r.windows()...)
		st.steal += r.elapsed.Seconds() * stealShare(r.cpu, r.start, r.start.Add(r.elapsed))
		secs += r.elapsed.Seconds()
	}
	st.samples = len(all)
	if st.samples == 0 {
		return st
	}
	st.steal /= secs
	_, _, st.beyondP99 = all.summary(99)
	steals := make([]float64, len(ws))
	for k, w := range ws {
		steals[k] = w.steal
	}
	quiet := medianFloat(steals)
	var p50s, p99s, rps, mbps []float64
	for _, w := range ws {
		if len(w.lat) == 0 || w.steal > quiet {
			continue
		}
		p50, p99, _ := w.lat.summary(99)
		p50s, p99s = append(p50s, float64(p50)), append(p99s, float64(p99))
		rps = append(rps, float64(len(w.lat))/w.secs)
		mbps = append(mbps, float64(w.bytes)/1e6/w.secs)
		st.quietSteal = max(st.quietSteal, w.steal)
	}
	st.windows = len(p50s)
	st.p50, st.p99 = medianFloat(p50s), medianFloat(p99s)
	st.rps, st.mbps = medianFloat(rps), medianFloat(mbps)
	return st
}

// scanLoop drives conns closed-loop clients, each on its own keep-alive
// connection, until stop is closed: a client posts the next body of a
// shared cursor to the ids scan endpoint, waits for the verdict, checks
// it against the oracle and only then sends again. A transport error, a
// non-2xx reply or a verdict that differs from the oracle is a failure.
// It returns once every client has finished its last request.
func scanLoop(base string, bodies [][]byte, o *oracle, conns int, stop <-chan struct{}) scanResult {
	var cursor atomic.Int64
	results := make([]scanResult, conns)
	sampled := make(chan struct{})
	cpu := make(chan []cpuSample, 1)
	go func() { cpu <- sampleCPU(sampled) }()
	start := time.Now()
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := newScanConn(base)
			defer k.close()
			r := &results[w]
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				i := int(cursor.Add(1)-1) % len(bodies)
				got, err := k.scan(bodies[i])
				t1 := time.Now()
				r.lat = append(r.lat, t1.Sub(t0).Nanoseconds())
				r.end = append(r.end, t1.Sub(start).Nanoseconds())
				r.size = append(r.size, int64(len(bodies[i])))
				r.attempted++
				if err != nil || !o.matches(i, got) {
					r.failed++
				}
			}
		}()
	}
	wg.Wait()
	out := scanResult{start: start, elapsed: time.Since(start)}
	close(sampled)
	out.cpu = <-cpu
	for _, r := range results {
		out.add(r)
	}
	return out
}

// uploadResult is what the upload writer observed.
type uploadResult struct {
	lat       latencies // per PUT, ns
	attempted int       // PUTs + DELETEs
	failed    int
}

// uploadLoop runs the writer of the upload workload: it walks the plan,
// PUTs each subset as a fresh cold tenant, checks that the reply is 201
// Created with the requested rule count, and DELETEs the tenant once
// the reply is in.
func uploadLoop(base string, plan [][]sfa.RuleDef) (uploadResult, error) {
	texts := make([]string, len(plan))
	for i, sub := range plan {
		t, err := serve.FormatRules(sub)
		if err != nil {
			return uploadResult{}, err
		}
		texts[i] = t
	}
	var r uploadResult
	for i, sub := range plan {
		name := fmt.Sprintf("cold-%d", i)
		t0 := time.Now()
		reply, code, err := putTenant(base, name, texts[i])
		r.lat = append(r.lat, time.Since(t0).Nanoseconds())
		r.attempted++
		if err != nil || code != http.StatusCreated || !reply.Created || reply.Rules != len(sub) {
			r.failed++
		}
		r.attempted++
		if code, err := deleteTenant(base, name); err != nil || code != http.StatusOK {
			r.failed++
		}
	}
	return r, nil
}

// uploadsFor is how many cold tenants the upload writer builds in a
// phase meant to last about d: whole blocks of nine, so every tenant
// size 8..16 occurs equally often, at about 0.8 s a build on a 2-CPU
// machine. A fixed count rather than a deadline keeps a seed's tenants
// the same from run to run; the phase ends when the last one is built.
func uploadsFor(d time.Duration) int {
	return max(1, int(math.Round(d.Seconds()/7))) * (uploadMaxRules - uploadMinRules + 1)
}

// closeAfter returns a channel that is closed once d has passed.
func closeAfter(d time.Duration) <-chan struct{} {
	c := make(chan struct{})
	time.AfterFunc(d, func() { close(c) })
	return c
}

// drive runs a workload's traffic: on lines and bulk its scan clients
// for d; on upload the writer's cold tenants of plan, with the reader
// scanning beside it until the writer is done.
func drive(base string, w *workload, plan [][]sfa.RuleDef, d time.Duration) (scanResult, uploadResult, error) {
	if w.name != "upload" {
		return scanLoop(base, w.bodies, w.oracle, w.conns, closeAfter(d)), uploadResult{}, nil
	}
	var up uploadResult
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		up, err = uploadLoop(base, plan)
	}()
	sr := scanLoop(base, w.bodies, w.oracle, w.conns, done)
	<-done
	return sr, up, err
}
