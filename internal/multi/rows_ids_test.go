package multi

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/prefilter"
	"repro/internal/snort"
	"repro/internal/syntax"
	"repro/internal/textgen"
)

// TestIDSShardsWalkAgreesWithReference drives every shard of the ids
// corpus (all snort.ScanSample rules, planned with their prefilter
// extractions as the served path plans them) through the engine's row
// walk, and checks the mapping each text induces against the
// class-indexed reference walk core.DSFA.Run. Texts cover every length
// 0–9 (the walker's unroll tails) and 4 KiB slices of attack-seeded
// traffic and of random class representatives.
func TestIDSShardsWalkAgreesWithReference(t *testing.T) {
	// Rule order as the served tenant loads it (by name, i.e. by id).
	rules := slices.Clone(snort.ScanSample(1 << 20))
	slices.SortFunc(rules, func(a, b snort.Rule) int { return cmp.Compare(a.ID, b.ID) })
	nodes := make([]*syntax.Node, len(rules))
	infos := make([]prefilter.Rule, len(rules))
	for i, r := range rules {
		node, err := syntax.Parse(r.Pattern, r.Flags)
		if err != nil {
			t.Fatalf("rule %d: %v", r.ID, err)
		}
		infos[i] = prefilter.Extract(node, true)
		nodes[i] = syntax.BracketForSearch(node)
	}
	set, err := Compile(nodes, Options{Prefilter: infos, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	traffic, _ := textgen.Traffic{SuspiciousPerMille: 100}.Generate(4*4096, 5)
	r := rand.New(rand.NewSource(13))
	for i, sh := range set.shards {
		m := eagerEngine(sh.m)
		if m == nil {
			t.Fatalf("shard %d is lazy", i)
		}
		s := m.SFA()
		var texts [][]byte
		for n := 0; n <= 9; n++ {
			texts = append(texts, randRep(r, n, s.BC().Rep))
		}
		for off := 0; off+4096 <= len(traffic); off += 4096 {
			texts = append(texts, traffic[off:off+4096], randRep(r, 4096, s.BC().Rep))
		}
		cur, tmp := make([]int16, m.MappingLen()), make([]int16, m.MappingLen())
		for _, text := range texts {
			m.InitMapping(cur)
			cur, tmp = m.ComposeChunk(cur, tmp, text)
			if want := s.Map(s.Run(s.Start, text)); !slices.Equal(cur, want) {
				t.Fatalf("shard %d (%d states, %d classes): walk over %d bytes diverges from Run",
					i, s.NumStates, s.BC().Count, len(text))
			}
		}
	}
	t.Logf("ids: %d rules, %d shards", len(rules), set.NumShards())
	if set.NumShards() < 2 {
		t.Fatalf("ids planned into %d shard(s); the corpus should need several", set.NumShards())
	}
}

// randRep draws n bytes uniformly from the class representatives.
func randRep(r *rand.Rand, n int, rep []byte) []byte {
	w := make([]byte, n)
	for i := range w {
		w[i] = rep[r.Intn(len(rep))]
	}
	return w
}
