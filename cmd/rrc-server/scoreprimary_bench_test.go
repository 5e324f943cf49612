package main

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"tsppr/internal/core"
	"tsppr/internal/datagen"
	"tsppr/internal/features"
	"tsppr/internal/linalg"
	"tsppr/internal/rec"
	"tsppr/internal/seq"
)

// BenchmarkScorePrimary prices the goroutine + buffered channel + recover
// that scorePrimary wraps around every primary scoring call (what keeps a
// stalled scorer from holding a request past its deadline) against
// calling the engine inline, at the paper's |W|=100, Ω=10, K=40. Both
// arms convert to the wire shape, so the difference is the wrapper alone.
//
//	go test ./cmd/rrc-server -run '^$' -bench ScorePrimary -benchmem
func BenchmarkScorePrimary(b *testing.B) {
	const windowCap, omega, k, topN = 100, 10, 40, 10
	cfg := datagen.GowallaLike(32, 7)
	cfg.MinLen, cfg.MaxLen = 120, 240
	cfg.WindowCap = windowCap
	ds, err := datagen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	fb := features.NewBuilder(ds.NumItems(), windowCap, omega)
	for _, s := range ds.Seqs {
		fb.Add(s)
	}
	ex := fb.Build(features.AllFeatures, features.Hyperbolic)
	rng := rand.New(rand.NewSource(7))
	randMatrix := func(rows, cols int) *linalg.Matrix {
		m := linalg.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64() * 0.3
		}
		return m
	}
	m := &core.Model{K: k, F: ex.Dim(), MapType: core.PerUserMap,
		U: randMatrix(ds.NumUsers(), k), V: randMatrix(ds.NumItems(), k), Extractor: ex}
	for range ds.NumUsers() {
		m.A = append(m.A, randMatrix(k, ex.Dim()))
	}
	if err := m.Validate(); err != nil {
		b.Fatal(err)
	}
	var contexts []*rec.Context
	cands := 0
	for u, s := range ds.Seqs {
		w := seq.NewWindow(windowCap)
		for _, v := range s {
			w.Push(v)
		}
		if c := len(w.Candidates(omega, nil)); w.Full() && c > 0 {
			contexts = append(contexts, &rec.Context{User: u, Window: w, Omega: omega})
			cands += c
		}
	}
	if len(contexts) == 0 {
		b.Fatal("no full-window contexts")
	}
	srv := newServer(m, serverOptions{windowCap: windowCap, defaultOmega: omega})
	eng := srv.eng.Load()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	candsPerOp := float64(cands) / float64(len(contexts))

	b.Run("goroutine", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(candsPerOp, "cands/op")
		for i := range b.N {
			resp, err := srv.scorePrimary(ctx, eng, contexts[i%len(contexts)], topN)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = resp
		}
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(candsPerOp, "cands/op")
		for i := range b.N {
			benchSink = toResponse(eng.Recommend(contexts[i%len(contexts)], topN, nil), false)
		}
	})
}

// benchSink keeps the compiler from discarding the measured calls.
var benchSink *recommendResponse
