package engine_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tsppr/internal/core"
	"tsppr/internal/engine"
	"tsppr/internal/features"
	"tsppr/internal/linalg"
	"tsppr/internal/rec"
	"tsppr/internal/seq"
)

const (
	fixtureUsers     = 8
	fixtureItems     = 30
	fixtureWindowCap = 20
	fixtureOmega     = 3
	fixtureK         = 6
)

// fixture builds a model with k latent factors and random (but seeded,
// finite) parameters over a synthetic repeat-heavy corpus. Parameters are
// drawn directly rather than trained: scoring equivalence and the
// Recommend contract depend only on the model's shape, and skipping SGD
// keeps the full mask × recency × map-kind × K sweep fast. IdentityMap
// ignores k: it requires K == F.
func fixture(t testing.TB, rng *rand.Rand, mask features.Mask, rk features.RecencyKind, mt core.MapKind, k int) (*core.Model, []seq.Sequence) {
	t.Helper()
	seqs := make([]seq.Sequence, fixtureUsers)
	for u := range seqs {
		s := make(seq.Sequence, 120)
		for i := range s {
			if i > 0 && rng.Float64() < 0.6 {
				s[i] = s[rng.Intn(i)] // repeat consumption
			} else {
				s[i] = seq.Item(rng.Intn(fixtureItems))
			}
		}
		seqs[u] = s
	}
	b := features.NewBuilder(fixtureItems, fixtureWindowCap, fixtureOmega)
	for _, s := range seqs {
		b.Add(s)
	}
	ex := b.Build(mask, rk)
	f := ex.Dim()
	if mt == core.IdentityMap {
		k = f
	}
	m := &core.Model{
		K: k, F: f, MapType: mt,
		U: randMatrix(rng, fixtureUsers, k), V: randMatrix(rng, fixtureItems, k),
		Extractor: ex,
	}
	switch mt {
	case core.PerUserMap:
		for u := 0; u < fixtureUsers; u++ {
			m.A = append(m.A, randMatrix(rng, k, f))
		}
	case core.SharedMap:
		m.A = []*linalg.Matrix{randMatrix(rng, k, f)}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m, seqs
}

func randMatrix(rng *rand.Rand, rows, cols int) *linalg.Matrix {
	mat := linalg.NewMatrix(rows, cols)
	for i := range mat.Data {
		mat.Data[i] = rng.NormFloat64() * 0.3
	}
	return mat
}

func windowFor(s seq.Sequence) *seq.Window {
	w := seq.NewWindow(fixtureWindowCap)
	for _, v := range s {
		w.Push(v)
	}
	return w
}

// refScore is the pre-refactor per-call scoring path, kept verbatim as the
// golden reference: extract f_uvt, derive w_u = A_uᵀu on the spot with the
// same summation order the model's Precompute uses (f outer, k inner
// ascending), and sum the two terms. The engine must reproduce it bit for
// bit — any drift means the precomputed fold reassociated the arithmetic.
func refScore(m *core.Model, u int, v seq.Item, w *seq.Window, f linalg.Vector) float64 {
	uvec := m.U.Row(u)
	static := 0.0
	if v >= 0 && int(v) < m.V.Rows {
		static = linalg.Dot(uvec, m.V.Row(int(v)))
	}
	m.Extractor.Extract(f, v, w)
	dyn := 0.0
	switch m.MapType {
	case core.IdentityMap:
		dyn = linalg.Dot(uvec, f)
	default:
		a := m.A[0]
		if m.MapType == core.PerUserMap {
			a = m.A[u]
		}
		for fi := 0; fi < m.F; fi++ {
			s := 0.0
			for k := 0; k < m.K; k++ {
				s += uvec[k] * a.At(k, fi)
			}
			dyn += s * f[fi]
		}
	}
	return static + dyn
}

// refRecommend is the pre-refactor ranking path: deterministically ordered
// candidates, per-call scoring, full sort under the Top-N selector's strict
// total order (higher score first, ties to the smaller item id).
func refRecommend(m *core.Model, u int, w *seq.Window, omega, n int) []rec.Scored {
	f := linalg.NewVector(m.F)
	cands := w.Candidates(omega, nil)
	scored := make([]rec.Scored, 0, len(cands))
	for _, v := range cands {
		scored = append(scored, rec.Scored{Item: v, Score: refScore(m, u, v, w, f)})
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		return scored[i].Item < scored[j].Item
	})
	if len(scored) > n {
		scored = scored[:n]
	}
	return scored
}

// TestGoldenEquivalence sweeps every feature mask, both recency variants,
// all three map kinds, and two latent widths — the small fixture K=6 and
// the paper's K=40 (suffix /k40) — and checks that the engine's scores
// and rankings are bit-identical to the pre-refactor per-call path for
// every user and candidate.
func TestGoldenEquivalence(t *testing.T) {
	kinds := []core.MapKind{core.PerUserMap, core.SharedMap, core.IdentityMap}
	recencies := []features.RecencyKind{features.Hyperbolic, features.Exponential}
	widths := []struct {
		k      int
		suffix string
	}{{fixtureK, ""}, {40, "/k40"}}
	for _, width := range widths {
		for mask := features.Mask(1); mask <= features.AllFeatures; mask++ {
			for _, rk := range recencies {
				for _, mt := range kinds {
					k, mask, rk, mt := width.k, mask, rk, mt
					t.Run(fmt.Sprintf("mask%02d/%s/%s%s", mask, rk, mt, width.suffix), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(mask)<<8 | int64(rk)<<4 | int64(mt)))
						m, seqs := fixture(t, rng, mask, rk, mt, k)
						eng := engine.New(m)
						f := linalg.NewVector(m.F)
						for u, s := range seqs {
							w := windowFor(s)
							// Per-item scores, including an out-of-universe item.
							cands := w.Candidates(fixtureOmega, nil)
							for _, v := range append(cands, seq.Item(fixtureItems+5)) {
								want := refScore(m, u, v, w, f)
								if got := eng.Score(u, v, w); got != want {
									t.Fatalf("user %d item %d: engine %.17g != reference %.17g", u, v, got, want)
								}
							}
							// Full rankings at several cutoffs, scores included.
							for _, n := range []int{1, 3, 10, len(cands) + 7} {
								want := refRecommend(m, u, w, fixtureOmega, n)
								got := eng.Recommend(&rec.Context{User: u, Window: w, Omega: fixtureOmega}, n, nil)
								if len(got) != len(want) {
									t.Fatalf("user %d n=%d: %d results, want %d", u, n, len(got), len(want))
								}
								for i := range got {
									if got[i] != want[i] {
										t.Fatalf("user %d n=%d rank %d: engine %v != reference %v", u, n, i, got[i], want[i])
									}
								}
							}
						}
					})
				}
			}
		}
	}
}

func defaultFixture(t testing.TB) (*core.Model, []seq.Sequence, *engine.Engine) {
	rng := rand.New(rand.NewSource(42))
	m, seqs := fixture(t, rng, features.AllFeatures, features.Hyperbolic, core.PerUserMap, fixtureK)
	return m, seqs, engine.New(m)
}

func TestRecommendContract(t *testing.T) {
	_, seqs, eng := defaultFixture(t)
	ctx := &rec.Context{User: 0, Window: windowFor(seqs[0]), Omega: fixtureOmega}
	got := eng.Recommend(ctx, 10, nil)
	if len(got) == 0 {
		t.Fatal("no recommendations on a repeat-heavy window")
	}
	cands := ctx.Window.Candidates(fixtureOmega, nil)
	want := len(cands)
	if want > 10 {
		want = 10
	}
	if len(got) != want {
		t.Fatalf("returned %d, want %d", len(got), want)
	}
	inCands := map[seq.Item]bool{}
	for _, c := range cands {
		inCands[c] = true
	}
	seen := map[seq.Item]bool{}
	for i, s := range got {
		if !inCands[s.Item] {
			t.Fatalf("non-candidate %d recommended", s.Item)
		}
		if seen[s.Item] {
			t.Fatalf("duplicate %d", s.Item)
		}
		seen[s.Item] = true
		if i > 0 && s.Score > got[i-1].Score {
			t.Fatal("scores not descending")
		}
		// The pair's score is the engine's score for that item.
		if s.Score != eng.Score(0, s.Item, ctx.Window) {
			t.Fatalf("reported score %v != Score() for item %d", s.Score, s.Item)
		}
	}
}

func TestRecommendEmptyAndZeroN(t *testing.T) {
	_, seqs, eng := defaultFixture(t)
	// Fresh window: every item too recent or absent → no candidates.
	w := seq.NewWindow(fixtureWindowCap)
	w.Push(1)
	ctx := &rec.Context{User: 0, Window: w, Omega: fixtureOmega}
	if got := eng.Recommend(ctx, 5, nil); len(got) != 0 {
		t.Fatalf("empty window produced %v", got)
	}
	full := &rec.Context{User: 0, Window: windowFor(seqs[0]), Omega: fixtureOmega}
	if got := eng.Recommend(full, 0, nil); len(got) != 0 {
		t.Fatalf("n=0 produced %v", got)
	}
	// dst is appended to, not clobbered.
	dst := []rec.Scored{{Item: 77, Score: 9}}
	got := eng.Recommend(full, 2, dst)
	if len(got) < 1 || got[0] != dst[0] {
		t.Fatalf("dst prefix clobbered: %v", got)
	}
}

func TestScoreUnknownItem(t *testing.T) {
	m, seqs, eng := defaultFixture(t)
	w := windowFor(seqs[0])
	// An item outside the model's universe has no latent row: its score is
	// the dynamic term alone, and must be finite, not a panic.
	v := seq.Item(m.NumItems() + 3)
	got := eng.Score(0, v, w)
	f := linalg.NewVector(m.F)
	m.Extractor.Extract(f, v, w)
	if want := linalg.Dot(m.EffectiveFeatureWeights(0), f); got != want {
		t.Fatalf("unknown item score %v, want dynamic-only %v", got, want)
	}
}

func TestPanicsOnBadUser(t *testing.T) {
	_, seqs, eng := defaultFixture(t)
	w := windowFor(seqs[0])
	for name, fn := range map[string]func(){
		"Score":     func() { eng.Score(-1, 0, w) },
		"Recommend": func() { eng.Recommend(&rec.Context{User: fixtureUsers + 1, Window: w, Omega: fixtureOmega}, 3, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on bad user did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFactorySharesEngine(t *testing.T) {
	_, _, eng := defaultFixture(t)
	f := eng.Factory()
	if f.Name != "TS-PPR" {
		t.Fatalf("factory name %q", f.Name)
	}
	if r1, r2 := f.New(1), f.New(2); r1 != rec.Recommender(eng) || r1 != r2 {
		t.Fatal("factory minted distinct instances; the engine is shared")
	}
}

// TestRecommendZeroAllocs pins the tentpole property: once the pool is
// warm and dst has capacity, Recommend is allocation-free.
func TestRecommendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops values by design; allocation counts are meaningless")
	}
	_, seqs, eng := defaultFixture(t)
	ctx := &rec.Context{User: 2, Window: windowFor(seqs[2]), Omega: fixtureOmega}
	var dst []rec.Scored
	dst = eng.Recommend(ctx, 10, dst[:0]) // warm pool scratch and dst
	if len(dst) == 0 {
		t.Fatal("no recommendations to measure")
	}
	if avg := testing.AllocsPerRun(200, func() {
		dst = eng.Recommend(ctx, 10, dst[:0])
	}); avg != 0 {
		t.Fatalf("steady-state Recommend allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		eng.Score(2, dst[0].Item, ctx.Window)
	}); avg != 0 {
		t.Fatalf("steady-state Score allocates %.1f/op, want 0", avg)
	}
}

// TestConcurrentRecommend drives one shared engine from many goroutines —
// the batch-endpoint fan-out pattern — and checks every goroutine sees
// exactly the serial results. Run under -race (make check) this also
// proves the scratch pool isolates concurrent scorers.
func TestConcurrentRecommend(t *testing.T) {
	_, seqs, eng := defaultFixture(t)
	ctxs := make([]*rec.Context, fixtureUsers)
	serial := make([][]rec.Scored, fixtureUsers)
	for u := range ctxs {
		ctxs[u] = &rec.Context{User: u, Window: windowFor(seqs[u]), Omega: fixtureOmega}
		serial[u] = eng.Recommend(ctxs[u], 10, nil)
	}
	const workers = 8
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		g := g
		go func() {
			var dst []rec.Scored
			for i := 0; i < 200; i++ {
				u := (g + i) % fixtureUsers
				dst = eng.Recommend(ctxs[u], 10, dst[:0])
				if len(dst) != len(serial[u]) {
					errs <- errMismatch(u)
					return
				}
				for j := range dst {
					if dst[j] != serial[u][j] {
						errs <- errMismatch(u)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

type errMismatch int

func (e errMismatch) Error() string { return "concurrent result diverged from serial for user" }
