package experiments

import (
	"testing"
	"time"
)

// TestTable1DefaultConfigFinishes guards the default mdsbench run against
// exact-solver blowups: the whole Table 1 must complete within a couple of
// minutes. (The tree row and the ding instances have treewidth at most
// two and go to the width-2 DP; grid rows run at side gridSide(N) = 10 by
// default, where the bitset engine proves OPT in ~0.1s.)
func TestTable1DefaultConfigFinishes(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running sanity check")
	}
	start := time.Now()
	// The EXPERIMENTS.md configuration, mdsbench's -n and -process-n
	// defaults.
	if _, err := Table1Spec(Table1Config{N: 120, ProcessN: 48}).RunSequential(1); err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Minute {
		t.Errorf("Table1 took %v; default config regressed", elapsed)
	}
}
