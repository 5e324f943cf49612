package main

import (
	"fmt"
	"math"
	"sort"

	"tsppr/internal/engine"
	"tsppr/internal/rec"
	"tsppr/internal/seq"
)

// reference computes the answer a correct server must give: a fresh
// seq.Window fed the user's seeded prefix and acknowledged consumes,
// scored by an engine over the same model.
type reference struct {
	fx     *fixture
	eng    *engine.Engine
	window int
}

type answer struct {
	items  []int
	scores []float64
}

// answers returns the reference answer after each prefix of the user's
// acknowledged consumes: out[k] is the answer after k of them.
func (r *reference) answers(u int, acked []seq.Item, upTo int) []answer {
	w := seq.NewWindow(r.window)
	for _, it := range r.fx.seeded[u] {
		w.Push(it)
	}
	out := make([]answer, 0, upTo+1)
	for k := 0; ; k++ {
		out = append(out, r.answer(u, w))
		if k == upTo {
			return out
		}
		w.Push(acked[k])
	}
}

func (r *reference) answer(u int, w *seq.Window) answer {
	scored := r.eng.Recommend(&rec.Context{User: u, Window: w, Omega: readOmega}, readN, nil)
	a := answer{items: make([]int, len(scored)), scores: make([]float64, len(scored))}
	for i, s := range scored {
		a.items[i], a.scores[i] = int(s.Item), s.Score
	}
	return a
}

// equal compares items exactly and scores bit for bit.
func (a answer) equal(items []int, scores []float64) bool {
	if len(items) != len(a.items) || len(scores) != len(a.scores) {
		return false
	}
	for i := range items {
		if items[i] != a.items[i] || math.Float64bits(scores[i]) != math.Float64bits(a.scores[i]) {
			return false
		}
	}
	return true
}

// checkSamples verifies recorded answers. A sample must equal the
// reference after exactly k consumes; when staleOK (reads routed to a
// follower within the router's staleness bound) an answer equal to an
// earlier prefix is accepted and counted as stale. It returns the
// mismatches, the stale count and a description of the first mismatch.
func (r *reference) checkSamples(samples []readSample, users []userState, staleOK bool) (bad, stale int, first string) {
	byUser := map[int][]readSample{}
	for _, s := range samples {
		byUser[s.user] = append(byUser[s.user], s)
	}
	ids := make([]int, 0, len(byUser))
	for u := range byUser {
		ids = append(ids, u)
	}
	sort.Ints(ids)
	for _, u := range ids {
		ss := byUser[u]
		maxK := 0
		for _, s := range ss {
			maxK = max(maxK, s.k)
		}
		ref := r.answers(u, users[u].acked, maxK)
		for _, s := range ss {
			if ref[s.k].equal(s.items, s.scores) {
				continue
			}
			matched := false
			if staleOK {
				for k := s.k - 1; k >= 0 && !matched; k-- {
					matched = ref[k].equal(s.items, s.scores)
				}
			}
			if matched {
				stale++
				continue
			}
			bad++
			if first == "" {
				first = fmt.Sprintf("user %d after %d consumes: got %v %v, want %v %v",
					u, s.k, s.items, s.scores, ref[s.k].items, ref[s.k].scores)
			}
		}
	}
	return bad, stale, first
}

// checkLSNs reports LSNs acknowledged twice on one shard.
func checkLSNs(obs []lsnObs) int {
	seen := map[lsnObs]bool{}
	dup := 0
	for _, o := range obs {
		if seen[o] {
			dup++
		}
		seen[o] = true
	}
	return dup
}

// rereadUsers picks the users to re-read on every node after the run:
// those with the most acknowledged consumes, up to n.
func rereadUsers(users []userState, n int) []int {
	var ids []int
	for u := range users {
		if len(users[u].acked) > 0 && !users[u].tainted {
			ids = append(ids, u)
		}
	}
	sort.SliceStable(ids, func(i, j int) bool { return len(users[ids[i]].acked) > len(users[ids[j]].acked) })
	return ids[:min(n, len(ids))]
}
