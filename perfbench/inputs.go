package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/snort"
	"repro/internal/syntax"
	"repro/internal/textgen"
	"repro/sfa"
)

const (
	// linesCorpusBytes is the traffic the lines workload cycles through:
	// about 17k request lines, so a run revisits each line a few times
	// at most and the server sees a realistic mix of verdicts.
	linesCorpusBytes = 512 << 10
	// bulkBodies × bulkBodyBytes is the bulk workload's corpus: distinct
	// 1 MiB bodies, each streamed through sixteen 64 KiB server chunks.
	bulkBodies    = 8
	bulkBodyBytes = 1 << 20
	// uploadMinRules..uploadMaxRules bounds each cold tenant's rule count.
	uploadMinRules = 8
	uploadMaxRules = 16
)

// idsDefs is the standing tenant: the whole snort.ScanSample corpus.
// Names follow the rNNN-category form internal/harness uses.
func idsDefs() []sfa.RuleDef {
	rules := snort.ScanSample(1 << 30)
	defs := make([]sfa.RuleDef, len(rules))
	for i, r := range rules {
		var fl sfa.Flag
		if r.Flags&syntax.FoldCase != 0 {
			fl |= sfa.FoldCase
		}
		if r.Flags&syntax.DotAll != 0 {
			fl |= sfa.DotAll
		}
		defs[i] = sfa.RuleDef{Name: fmt.Sprintf("r%03d-%s", r.ID, r.Category), Pattern: r.Pattern, Flags: fl}
	}
	return defs
}

// trafficLines returns the lines workload's request bodies: one
// textgen.Traffic line each, at idsserve's 2‰ attack rate.
func trafficLines(seed int64) [][]byte {
	data, _ := textgen.Traffic{SuspiciousPerMille: 2}.Generate(linesCorpusBytes, seed)
	return textgen.Lines(data)
}

// bulkCorpus returns the bulk workload's 1 MiB request bodies.
func bulkCorpus(seed int64) [][]byte {
	out := make([][]byte, bulkBodies)
	for i := range out {
		data, _ := textgen.Traffic{SuspiciousPerMille: 2}.Generate(bulkBodyBytes, seed*bulkBodies+int64(i))
		out[i] = data[:bulkBodyBytes]
	}
	return out
}

// uploadPlan returns the seeded cold-tenant sequence. Tenant sizes run
// through seeded permutations of 8..16, so every seed's run sees the same
// mix of sizes. A tenant of n rules draws one rule at random from each of
// n equal strata of the corpus ranked by each rule's own D-SFA size, so
// every tenant mixes cheap and expensive rules alike. Cold-build time
// depends a lot on which rules share a tenant and a run fits only a dozen
// or two builds; with plain random subsets one seed's median build was
// 40% above another's.
func uploadPlan(defs []sfa.RuleDef, seed int64, tenants int) ([][]sfa.RuleDef, error) {
	ranked, err := rankByStates(defs)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	var out [][]sfa.RuleDef
	for len(out) < tenants {
		for _, k := range r.Perm(uploadMaxRules - uploadMinRules + 1) {
			n := uploadMinRules + k
			sub := make([]sfa.RuleDef, n)
			for j := range sub {
				lo, hi := j*len(ranked)/n, (j+1)*len(ranked)/n
				sub[j] = ranked[lo+r.Intn(hi-lo)]
			}
			out = append(out, sub)
		}
	}
	return out[:tenants], nil
}

// rankByStates orders defs by the live state count of each rule's own
// search-mode D-SFA, ties by name.
func rankByStates(defs []sfa.RuleDef) ([]sfa.RuleDef, error) {
	states := make(map[string]int, len(defs))
	for _, d := range defs {
		rs, err := sfa.NewRuleSetFromDefs([]sfa.RuleDef{d}, sfa.WithSearch(), sfa.WithThreads(1))
		if err != nil {
			return nil, err
		}
		states[d.Name] = rs.Shards()[0].SFAStates
	}
	ranked := slices.Clone(defs)
	slices.SortFunc(ranked, func(a, b sfa.RuleDef) int {
		if c := states[a.Name] - states[b.Name]; c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return ranked, nil
}

// oracle holds the expected verdict of every distinct scan body,
// computed by an isolated-rules RuleSet (one engine per rule) over the
// same definitions — the reference the combined path is gated against.
type oracle struct {
	want [][]string // want[i] is the sorted match set of bodies[i]
}

func newOracle(defs []sfa.RuleDef, bodies [][]byte) (*oracle, error) {
	rs, err := sfa.NewRuleSetFromDefs(defs, sfa.WithSearch(), sfa.WithIsolatedRules())
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	buf := make([]uint64, rs.MaskWords())
	seen := map[string][]string{}
	o := &oracle{want: make([][]string, len(bodies))}
	for i, b := range bodies {
		names, ok := seen[string(b)]
		if !ok {
			names = rs.MaskNames(rs.MatchMask(b, buf))
			slices.Sort(names)
			seen[string(b)] = names
		}
		o.want[i] = names
	}
	return o, nil
}

// matches reports whether got (in any order) is exactly body i's
// expected match set.
func (o *oracle) matches(i int, got []string) bool {
	want := o.want[i]
	if len(got) != len(want) {
		return false
	}
	s := slices.Clone(got)
	slices.Sort(s)
	return slices.Equal(s, want)
}
