package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/sfa"
)

// fakeScanServer answers every scan with verdict(body).
func fakeScanServer(verdict func(body []byte) []string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		json.NewEncoder(w).Encode(serve.ScanReply{Tenant: "ids", Matches: verdict(body)})
	}))
}

func testOracle(t *testing.T) (*oracle, [][]byte) {
	t.Helper()
	defs := []sfa.RuleDef{{Name: "foo", Pattern: "foo"}, {Name: "digits", Pattern: `\d{3}`}}
	bodies := [][]byte{[]byte("a foo here"), []byte("nothing"), []byte("foo 123")}
	o, err := newOracle(defs, bodies)
	if err != nil {
		t.Fatal(err)
	}
	return o, bodies
}

// honest is what a correct server answers for the test rules.
func honest(body []byte) []string {
	out := []string{}
	if bytes.Contains(body, []byte("123")) {
		out = append(out, "digits")
	}
	if bytes.Contains(body, []byte("foo")) {
		out = append(out, "foo")
	}
	return out
}

func TestScanLoopPassesCorrectVerdicts(t *testing.T) {
	o, bodies := testOracle(t)
	srv := fakeScanServer(honest)
	defer srv.Close()
	r := scanLoop(srv.URL, bodies, o, 2, closeAfter(100*time.Millisecond))
	if r.attempted == 0 || r.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want some and none", r.attempted, r.failed)
	}
	rep := newReport(io.Discard)
	rep.count(r.attempted, r.failed)
	if code := rep.finish(); code != 0 {
		t.Fatalf("exit code %d for a clean run", code)
	}
}

func TestOracleMismatchFailsTheRun(t *testing.T) {
	o, bodies := testOracle(t)
	// Drops the digits rule: bodies[2]'s verdict is wrong, the others
	// are right.
	srv := fakeScanServer(func(body []byte) []string {
		if bytes.Contains(body, []byte("foo")) {
			return []string{"foo"}
		}
		return []string{}
	})
	defer srv.Close()
	r := scanLoop(srv.URL, bodies, o, 1, closeAfter(100*time.Millisecond))
	if r.failed == 0 || r.failed >= r.attempted {
		t.Fatalf("attempted %d, failed %d; want about a third failed", r.attempted, r.failed)
	}
	var out bytes.Buffer
	rep := newReport(&out)
	rep.count(r.attempted, r.failed)
	if rep.failedShare() <= 0 {
		t.Fatalf("failed_share %v, want > 0", rep.failedShare())
	}
	if code := rep.finish(); code == 0 {
		t.Fatal("exit code 0 despite verdict mismatches")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != r.failed || res.Attempted != r.attempted {
		t.Fatalf("result line %+v does not carry the failures", res)
	}
}

func TestScanLoopCountsTransportAndStatusFailures(t *testing.T) {
	o, bodies := testOracle(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusInternalServerError)
	}))
	r := scanLoop(srv.URL, bodies, o, 1, closeAfter(50*time.Millisecond))
	if r.attempted == 0 || r.failed != r.attempted {
		t.Fatalf("500s: attempted %d, failed %d; want all failed", r.attempted, r.failed)
	}
	srv.Close()
	r = scanLoop(srv.URL, bodies, o, 1, closeAfter(50*time.Millisecond))
	if r.attempted == 0 || r.failed != r.attempted {
		t.Fatalf("closed server: attempted %d, failed %d; want all failed", r.attempted, r.failed)
	}
}

func TestUploadPlanIsStratified(t *testing.T) {
	defs := idsDefs()
	ranked, err := rankByStates(defs)
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	for i, d := range ranked {
		rank[d.Name] = i
	}
	plan, err := uploadPlan(defs, 7, 27)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 27 {
		t.Fatalf("%d tenants, want 27", len(plan))
	}
	sizes := uploadMaxRules - uploadMinRules + 1
	for b := 0; b+sizes <= len(plan); b += sizes {
		seen := map[int]bool{}
		for _, sub := range plan[b : b+sizes] {
			seen[len(sub)] = true
		}
		if len(seen) != sizes {
			t.Fatalf("tenants %d..%d do not use every size 8..16 once: %v", b, b+sizes-1, seen)
		}
	}
	for i, sub := range plan {
		n := len(sub)
		for j, d := range sub {
			if r := rank[d.Name]; r < j*len(defs)/n || r >= (j+1)*len(defs)/n {
				t.Fatalf("tenant %d rule %d (%s, rank %d) is outside stratum %d of %d", i, j, d.Name, r, j, n)
			}
		}
	}
	again, err := uploadPlan(defs, 7, 27)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(again, plan, slices.Equal) {
		t.Fatal("same seed, different plan")
	}
}

func TestUploadLoopChecksRuleCount(t *testing.T) {
	plan, err := uploadPlan(idsDefs(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		short   int // rules the fake server under-reports by
		wantBad bool
	}{{"honest", 0, false}, {"drops a rule", 1, true}} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodDelete {
				json.NewEncoder(w).Encode(map[string]string{"deleted": "x"})
				return
			}
			defs, err := serve.ParseRules(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(serve.LoadReply{Created: true, Rules: len(defs) - c.short})
		}))
		r, err := uploadLoop(srv.URL, plan)
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.lat) != len(plan) || r.attempted != 2*len(plan) {
			t.Fatalf("%s: %d attempts for %d PUTs of %d tenants", c.name, r.attempted, len(r.lat), len(plan))
		}
		if bad := r.failed == len(r.lat); bad != c.wantBad || (!c.wantBad && r.failed != 0) {
			t.Fatalf("%s: %d of %d operations failed", c.name, r.failed, r.attempted)
		}
	}
}
