package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/mds"
)

func TestGreedyDistributedIsDominating(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 6; i++ {
		g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 60, T: 5}, rng)
		s, phases := GreedyDistributed(g.Freeze())
		if !mds.IsDominatingSetCSR(g.Freeze(), s) {
			t.Fatalf("instance %d: not dominating", i)
		}
		if phases < 1 {
			t.Errorf("instance %d: %d phases", i, phases)
		}
	}
}

func TestGreedyDistributedStar(t *testing.T) {
	s, phases := GreedyDistributed(gen.Star(9).Freeze())
	if len(s) != 1 || s[0] != 0 {
		t.Errorf("star: set %v, want center only", s)
	}
	if phases != 1 {
		t.Errorf("star: %d phases, want 1", phases)
	}
}

func TestGreedyDistributedPathPhases(t *testing.T) {
	// On a path the span ties cascade from the high-identifier end: the
	// phase count grows with n, demonstrating why this baseline has no
	// constant-round guarantee.
	_, short := GreedyDistributed(gen.Path(20).Freeze())
	_, long := GreedyDistributed(gen.Path(200).Freeze())
	if long <= short {
		t.Errorf("phases did not grow with n: %d (n=20) vs %d (n=200)", short, long)
	}
}

func TestGreedyDistributedEmpty(t *testing.T) {
	s, phases := GreedyDistributed(gen.Path(0).Freeze())
	if len(s) != 0 || phases != 0 {
		t.Errorf("empty graph: %v, %d", s, phases)
	}
}

// Property: dominating on arbitrary graphs, and never worse than taking
// everything.
func TestGreedyDistributedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(30, 0.1, rng)
		s, _ := GreedyDistributed(g.Freeze())
		return mds.IsDominatingSetCSR(g.Freeze(), s) && len(s) <= g.N()
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
