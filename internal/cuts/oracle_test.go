package cuts

import "localmds/internal/graph"

// wholeGraphCuts is the Cuts kernel before blocks: the oracle localCuts is
// checked against. Its two passes are localCuts' with every ball taken in
// the whole graph: pass 1 opens N^r2[u] for every vertex u, articulation
// points included, and runs the separator DFS on it; pass 2 labels every
// admitted pair on its whole ball N^r2[{u, v}]. It shares the separator
// table, the worker split and the pair rules with localCuts, so a
// difference between the two is a difference in what the balls see.
func wholeGraphCuts(c *graph.CSR, r1, r2, workers int, a *graph.Arena, rule pairRule) (x, flagged []int) {
	n := c.N()
	arenas := workerArenas{a}
	t := sepTable{off: make([]int32, n+1)}
	var parts []*sepRows
	x = forEachVertex(n, workers, &arenas, func(a *graph.Arena, cut []bool) func(int) {
		w := &sepRows{}
		parts = append(parts, w)
		return func(u int) {
			w.claim(u)
			if c.Degree(u) < 2 {
				return // u cannot have neighbors in two components
			}
			ball := len(c.MarkBall(u, -1, r2, a))
			start := len(w.ent)
			var ok bool
			w.ent, ok = c.AppendSeparators(w.ent, u, a)
			if !ok {
				w.ent = append(w.ent, allPartners)
			}
			t.off[u+1] = int32(len(w.ent) - start)
			if r1 == r2 || len(c.MarkBall(u, -1, r1, a)) == ball {
				cut[u] = !ok // N^r1[u] is the separator ball
			} else {
				cut[u] = c.LabelComponents(u, -1, a) >= 2 // as isOneCut
			}
		}
	})
	t.merge(parts)

	flagged = forEachVertex(n, workers, &arenas, func(a *graph.Arena, flags []bool) func(int) {
		var ball []int32
		return func(u int) {
			if c.Degree(u) < 2 {
				return
			}
			partners, all := t.row(u)
			if all {
				ball = append(ball[:0], c.MarkBall(u, -1, r2, a)...)
				partners = ball
			}
			for _, v32 := range partners {
				v := int(v32)
				if v <= u || c.Degree(v) < 2 || !t.admits(v, u, true) {
					continue
				}
				needU, needV := rule.need(c, u, v, flags)
				if !needU && !needV {
					continue
				}
				c.MarkBall(u, v, r2, a)
				c.LabelComponents(u, v, a)
				touchedU, uncoveredU := c.ComponentsSeenBy(u, a)
				touchedV, uncoveredV := c.ComponentsSeenBy(v, a)
				if touchedU < 2 || touchedV < 2 {
					continue
				}
				rule.record(flags, u, v, needU, needV, uncoveredU, uncoveredV)
			}
		}
	})
	return x, flagged
}
