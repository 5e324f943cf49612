// Command rrc-bench measures the scoring engine's serving throughput on a
// fixed-seed workload at the paper's default shape (|W|=100, Ω=10, K=40)
// and writes the results as JSON (BENCH_PR13.json by default).
//
// The benchmarks run over the same trained model and the same pool of
// full-window recommendation contexts:
//
//   - single/engine  one Top-10 engine.Recommend per op
//   - cached/hit     one /recommend/user-shaped read answered by the
//     LSN-keyed response cache (probe + copy, no scoring)
//   - cached/miss    the same read falling through the cache: stale-LSN
//     probe, engine.Recommend, in-place refill
//   - batch/engine   a 64-request batch through the engine with the
//     server's bounded parallel fan-out
//
// "items/sec" is candidate-scoring throughput: the number of candidate
// items whose preference was (or, for a cache hit, did not have to be)
// evaluated per wall-clock second. Seeds are fixed; runs are reproducible
// up to scheduler noise. Earlier reports (BENCH_PR4/6/10.json) are the
// baseline a new run is read against.
//
//	rrc-bench -out BENCH_PR13.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tsppr/internal/core"
	"tsppr/internal/datagen"
	"tsppr/internal/engine"
	"tsppr/internal/features"
	"tsppr/internal/rec"
	"tsppr/internal/rescache"
	"tsppr/internal/sampling"
	"tsppr/internal/seq"
)

const (
	benchSeed      = 7
	benchUsers     = 48
	benchWindowCap = 100
	benchOmega     = 10
	benchTopN      = 10
	benchBatch     = 64
)

func main() {
	out := flag.String("out", "BENCH_PR13.json", "path to write the JSON report to")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "rrc-bench:", err)
		os.Exit(1)
	}
}

// deriveLabel names a report after its output file: the basename without
// the extension, e.g. BENCH_PR13.json → "BENCH_PR13 scoring benchmarks".
// Derived, never hard-coded, so a report always names the file it is in.
func deriveLabel(outPath string) string {
	base := filepath.Base(outPath)
	return strings.TrimSuffix(base, filepath.Ext(base)) + " scoring benchmarks"
}

type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	ItemsPerSec float64 `json:"items_per_sec"`
}

type report struct {
	Benchmark  string `json:"benchmark"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int    `json:"seed"`
	Workload   struct {
		Users             int `json:"users"`
		Items             int `json:"items"`
		Contexts          int `json:"contexts"`
		TopN              int `json:"top_n"`
		BatchSize         int `json:"batch_size"`
		CandidatesPerOp   int `json:"candidates_per_single_op"`
		CandidatesPerBand int `json:"candidates_per_batch_op"`
	} `json:"workload"`
	Results map[string]result `json:"results"`
	Speedup struct {
		CachedHitVsEngine float64 `json:"cached_hit_vs_engine"`
	} `json:"speedup"`
}

func run(outPath string) error {
	model, contexts, err := buildWorkload()
	if err != nil {
		return err
	}
	eng := engine.New(model)

	// Candidate counts are a property of the contexts, not the scorer:
	// every case evaluates the same candidate sets.
	perCtx := make([]int, len(contexts))
	totalCands := 0
	for i, ctx := range contexts {
		perCtx[i] = len(ctx.Window.Candidates(ctx.Omega, nil))
		totalCands += perCtx[i]
	}
	batchCands := 0
	for i := 0; i < benchBatch; i++ {
		batchCands += perCtx[i%len(contexts)]
	}
	meanCands := totalCands / len(contexts)

	rep := report{
		Benchmark:  deriveLabel(outPath),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       benchSeed,
		Results:    map[string]result{},
	}
	rep.Workload.Users = model.NumUsers()
	rep.Workload.Items = model.NumItems()
	rep.Workload.Contexts = len(contexts)
	rep.Workload.TopN = benchTopN
	rep.Workload.BatchSize = benchBatch
	rep.Workload.CandidatesPerOp = meanCands
	rep.Workload.CandidatesPerBand = batchCands

	measure := func(name string, candsPerOp int, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		res := result{
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			ItemsPerSec: float64(candsPerOp) * 1e9 / float64(r.NsPerOp()),
		}
		rep.Results[name] = res
		fmt.Printf("%-20s %12.0f ns/op %6d allocs/op %12.0f items/sec\n",
			name, res.NsPerOp, res.AllocsPerOp, res.ItemsPerSec)
	}

	measure("single/engine", meanCands, func(b *testing.B) {
		var dst []rec.Scored
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = eng.Recommend(contexts[i%len(contexts)], benchTopN, dst[:0])
		}
	})

	// Cache cases model the /recommend/user hot path: the hit is a probe
	// at the user's current LSN plus a copy-out, the miss is a stale-LSN
	// probe, a full engine ranking, and an in-place refill. Context i's
	// entry is versioned as LSN i+1; misses probe ever-fresh LSNs so
	// every op refills. Items/sec credits a hit with the candidates it
	// did NOT have to score — the apples-to-apples serving throughput.
	cache := rescache.New(rescache.Config{MaxEntries: 1 << 12})
	fillEpoch := cache.Epoch()
	for i, ctx := range contexts {
		scored := eng.Recommend(ctx, benchTopN, nil)
		items := make([]int, len(scored))
		scores := make([]float64, len(scored))
		for j, sc := range scored {
			items[j] = int(sc.Item)
			scores[j] = sc.Score
		}
		cache.Put(fillEpoch, ctx.User, uint64(i+1), benchOmega, benchTopN, items, scores)
	}
	measure("cached/hit", meanCands, func(b *testing.B) {
		items := make([]int, 0, benchTopN)
		scores := make([]float64, 0, benchTopN)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(contexts)
			var ok bool
			items, scores, ok = cache.Get(contexts[j].User, uint64(j+1), benchOmega, benchTopN, items[:0], scores[:0])
			if !ok {
				b.Fatal("expected cache hit")
			}
		}
	})
	// missLSN outlives the benchmark closure: testing.Benchmark re-invokes
	// it with growing b.N, and the cache keeps the previous round's fills,
	// so "fresh" versions must be monotonic across rounds, not per-round.
	missLSN := uint64(len(contexts))
	measure("cached/miss", meanCands, func(b *testing.B) {
		var dst []rec.Scored
		items := make([]int, 0, benchTopN)
		scores := make([]float64, 0, benchTopN)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(contexts)
			ctx := contexts[j]
			// Always ahead of the stored version → guaranteed miss, and
			// the Put refreshes the same variant in place.
			missLSN++
			lsn := missLSN
			var ok bool
			items, scores, ok = cache.Get(ctx.User, lsn, benchOmega, benchTopN, items[:0], scores[:0])
			if ok {
				b.Fatal("unexpected cache hit")
			}
			dst = eng.Recommend(ctx, benchTopN, dst[:0])
			items, scores = items[:0], scores[:0]
			for _, sc := range dst {
				items = append(items, int(sc.Item))
				scores = append(scores, sc.Score)
			}
			cache.Put(fillEpoch, ctx.User, lsn, benchOmega, benchTopN, items, scores)
		}
	})
	measure("batch/engine", batchCands, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engineBatch(eng, contexts, benchBatch, benchTopN)
		}
	})

	rep.Speedup.CachedHitVsEngine = rep.Results["cached/hit"].ItemsPerSec / rep.Results["single/engine"].ItemsPerSec
	fmt.Printf("speedup: cached-hit %.2fx\n", rep.Speedup.CachedHitVsEngine)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(buf, '\n'), 0o644)
}

// buildWorkload trains a small TS-PPR model on a fixed-seed synthetic
// corpus and assembles one full-window recommendation context per user.
func buildWorkload() (*core.Model, []*rec.Context, error) {
	cfg := datagen.GowallaLike(benchUsers, benchSeed)
	cfg.MinLen, cfg.MaxLen = 120, 240
	cfg.WindowCap = benchWindowCap
	ds, err := datagen.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	train := ds.Seqs
	numItems := ds.NumItems()
	b := features.NewBuilder(numItems, benchWindowCap, benchOmega)
	for _, s := range train {
		b.Add(s)
	}
	ex := b.Build(features.AllFeatures, features.Hyperbolic)
	set, err := sampling.Build(train, ex, sampling.Config{WindowCap: benchWindowCap, Omega: benchOmega, S: 5, Seed: benchSeed})
	if err != nil {
		return nil, nil, err
	}
	model, _, err := core.Train(set, len(train), numItems, ex, core.Config{K: 40, MaxSteps: 60_000, Seed: benchSeed})
	if err != nil {
		return nil, nil, err
	}
	var contexts []*rec.Context
	for u, s := range train {
		w := seq.NewWindow(benchWindowCap)
		for _, v := range s {
			w.Push(v)
		}
		if !w.Full() || len(w.Candidates(benchOmega, nil)) == 0 {
			continue
		}
		contexts = append(contexts, &rec.Context{User: u, Window: w, History: s, Omega: benchOmega})
	}
	if len(contexts) == 0 {
		return nil, nil, fmt.Errorf("no benchmark contexts survived")
	}
	return model, contexts, nil
}

// engineBatch scores batchN requests through the shared engine with the
// server's bounded fan-out (cmd/rrc-server handleBatch).
func engineBatch(eng *engine.Engine, contexts []*rec.Context, batchN, topN int) {
	parallelism := runtime.GOMAXPROCS(0)
	if parallelism > 8 {
		parallelism = 8
	}
	out := make([][]rec.Scored, batchN)
	if parallelism <= 1 {
		// One core: the server scores batch entries inline.
		for i := 0; i < batchN; i++ {
			out[i] = eng.Recommend(contexts[i%len(contexts)], topN, nil)
		}
		return
	}
	slots := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i := 0; i < batchN; i++ {
		i := i
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			out[i] = eng.Recommend(contexts[i%len(contexts)], topN, nil)
		}()
	}
	wg.Wait()
}
