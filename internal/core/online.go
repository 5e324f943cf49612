package core

import (
	"fmt"

	"tsppr/internal/linalg"
	"tsppr/internal/rngutil"
	"tsppr/internal/sampling"
	"tsppr/internal/seq"
)

// OnlineUpdater folds newly observed repeat consumptions into a trained
// model with a few SGD steps per event, instead of a full retrain — the
// serving-time counterpart of the paper's offline Algorithm 1. Each
// observed eligible repeat becomes a positive sample; negatives are drawn
// fresh from the live window's candidate set and features are extracted
// against the live window, exactly as the pre-sampler would have done.
//
// The updater mutates the model in place: do not call Observe concurrently
// with other Observe calls or with Scorers reading the same model. The
// usual serving pattern is a single updater goroutine owning the model and
// republishing an immutable snapshot after batches of updates.
type OnlineUpdater struct {
	m   *Model
	tr  trainer
	rng *rngutil.RNG

	// Negatives per observed positive (the paper's S, default 5 online).
	negatives int
	feat      linalg.Vector
	negFeat   linalg.Vector
	cands     []seq.Item
}

// OnlineConfig parameterizes an updater.
type OnlineConfig struct {
	// LearningRate for the online steps (default 0.01 — smaller than
	// offline training: the model is already near an optimum and single
	// events should nudge, not yank).
	LearningRate float64
	// Negatives per positive (default 5).
	Negatives int
	// Lambda/Gamma regularization applied during online steps
	// (defaults 0.01 / 0.05, the offline defaults).
	Lambda, Gamma float64
	Seed          uint64
}

func (c OnlineConfig) withDefaults() OnlineConfig {
	if c.LearningRate == 0 {
		c.LearningRate = 0.01
	}
	if c.Negatives == 0 {
		c.Negatives = 5
	}
	if c.Lambda == 0 {
		c.Lambda = 0.01
	}
	if c.Gamma == 0 {
		c.Gamma = 0.05
	}
	return c
}

// NewOnlineUpdater wraps a trained model. The model must have been
// produced by Train (or ReadModel) so its extractor is attached.
func NewOnlineUpdater(m *Model, cfg OnlineConfig) (*OnlineUpdater, error) {
	if m == nil || m.Extractor == nil {
		return nil, fmt.Errorf("core: OnlineUpdater requires a trained model with extractor")
	}
	cfg = cfg.withDefaults()
	if cfg.LearningRate <= 0 || cfg.Negatives <= 0 || cfg.Lambda < 0 || cfg.Gamma < 0 {
		return nil, fmt.Errorf("core: bad online config %+v", cfg)
	}
	ou := &OnlineUpdater{
		m: m,
		tr: trainer{m: m, cfg: Config{
			LearningRate: cfg.LearningRate,
			Lambda:       cfg.Lambda,
			Gamma:        cfg.Gamma,
		}},
		rng:       rngutil.New(cfg.Seed + 0x0411e),
		negatives: cfg.Negatives,
		feat:      linalg.NewVector(m.F),
		negFeat:   linalg.NewVector(m.F),
	}
	ou.tr.init()
	return ou, nil
}

// Observe folds one observed consumption into the model: if pos is an
// eligible repeat of the window (present, gap > omega) it performs one SGD
// step against each of up to Negatives freshly sampled window negatives.
// It returns the number of steps applied (0 when the event is not an
// eligible repeat, the user is unknown, or no negative exists).
//
// Call Observe *before* pushing pos into the window, mirroring the offline
// sampler's view.
func (ou *OnlineUpdater) Observe(user int, w *seq.Window, pos seq.Item, omega int) int {
	if user < 0 || user >= ou.m.NumUsers() {
		return 0
	}
	if int(pos) >= ou.m.NumItems() || pos < 0 {
		return 0
	}
	gap, ok := w.Gap(pos)
	if !ok || gap <= omega {
		return 0
	}
	ou.cands = w.Candidates(omega, ou.cands[:0])
	n := 0
	for _, c := range ou.cands {
		if c != pos && int(c) < ou.m.NumItems() {
			ou.cands[n] = c
			n++
		}
	}
	ou.cands = ou.cands[:n]
	if n == 0 {
		return 0
	}
	ou.m.Extractor.Extract(ou.feat, pos, w)

	steps := ou.negatives
	if steps > n {
		steps = n
	}
	// Partial Fisher-Yates for distinct negatives.
	for i := 0; i < steps; i++ {
		j := i + ou.rng.Intn(n-i)
		ou.cands[i], ou.cands[j] = ou.cands[j], ou.cands[i]
		neg := ou.cands[i]
		ou.m.Extractor.Extract(ou.negFeat, neg, w)
		ou.tr.step(sampling.Pair{
			User:    user,
			Pos:     pos,
			Neg:     neg,
			PosFeat: ou.feat,
			NegFeat: ou.negFeat,
		})
	}
	// The steps mutated u and A_u in place; re-fold this user's cached
	// effective feature weights so scoring stays consistent with the
	// updated parameters.
	ou.m.refreshUser(user)
	return steps
}
