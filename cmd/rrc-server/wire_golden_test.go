package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tsppr/internal/core"
	"tsppr/internal/features"
	"tsppr/internal/linalg"
	"tsppr/internal/seq"
	"tsppr/internal/wal"
)

// wireModel is a hand-built 3-user, 8-item, K=2 model whose scores are
// exact in float64 on every platform: U and V hold short dyadic
// fractions and the shared observable→latent map is zero, so
// r_uvt = uᵀv with no rounding (and no FMA-contraction difference)
// anywhere. The golden bytes below therefore pin the encoder's number
// formatting, not one machine's arithmetic.
func wireModel(t *testing.T, windowCap, omega int) *core.Model {
	t.Helper()
	b := features.NewBuilder(8, windowCap, omega)
	b.Add(seq.Sequence{0, 1, 1, 2, 2, 2, 3, 4, 5, 6, 7, 3, 3})
	ex := b.Build(features.AllFeatures, features.Hyperbolic)
	m := &core.Model{
		K: 2, F: ex.Dim(), MapType: core.SharedMap,
		U:         &linalg.Matrix{Rows: 3, Cols: 2, Data: []float64{1, 0.5, 0.25, -1, 0.5, 0.5}},
		V:         &linalg.Matrix{Rows: 8, Cols: 2, Data: []float64{0.5, 0.25, -0.25, 1, 1, -0.5, 0.75, 0.125, -1, -0.25, 0.125, 0.75, 0.375, -1, -0.5, 0.5}},
		A:         []*linalg.Matrix{linalg.NewMatrix(2, ex.Dim())},
		Extractor: ex,
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// wireServer serves wireModel with online sessions and the response
// cache on. |W| is wide enough for the degraded case below to push its
// candidates past e^{-745}, where the fallback's recency term underflows
// to exactly 0 and its scores are plain quotients.
func wireServer(t *testing.T) *server {
	t.Helper()
	const windowCap, omega = 800, 3
	m := wireModel(t, windowCap, omega)
	srv := newServer(m, serverOptions{
		windowCap: windowCap, defaultOmega: omega,
		eventsDir: t.TempDir(), fsync: wal.SyncNever, cacheEntries: 64,
	})
	o, err := newOnline(srv.opts, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.close() })
	srv.online = o
	return srv
}

// TestWireGolden pins the recommend endpoints' reply bytes: status and
// body, byte for byte, including the shapes that differ between them —
// an empty Top-N is [] on /recommend/user but an omitted field in a
// /recommend/batch entry, a degraded answer carries "degraded":true,
// and a cached /recommend/user answer is indistinguishable from the
// uncached one it replays.
func TestWireGolden(t *testing.T) {
	srv := wireServer(t)
	h := srv.routes()
	post := func(path, body string) (int, string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr.Code, rr.Body.String()
	}
	check := func(name, path, body string, wantCode int, want string) {
		t.Helper()
		code, got := post(path, body)
		if code != wantCode || got != want {
			t.Errorf("%s: POST %s %s\n got %d %q\nwant %d %q", name, path, body, code, got, wantCode, want)
		}
	}

	check("recommend", "/recommend",
		`{"user":0,"history":[0,1,2,3,4,5,6,7,0,1],"n":4}`,
		200, "{\"items\":[3,2,5,6],\"scores\":[0.8125,0.75,0.5,-0.125]}\n")

	// Degraded: only items 0..2 are past Ω=750, each last seen ≥780
	// steps ago, so the fallback ranks them by window frequency alone.
	degraded := `{"user":0,"history":[0,1,1,2,2,2` + strings.Repeat(",7", 780) + `],"n":3,"omega":750}`
	srv.degraded.Store(true)
	check("recommend degraded", "/recommend", degraded,
		200, "{\"items\":[2,1,0],\"scores\":[0.000003816793893129771,0.0000025445292620865143,0.0000012722646310432571],\"degraded\":true}\n")
	srv.degraded.Store(false)

	check("batch", "/recommend/batch",
		`{"requests":[{"user":1,"history":[2,3,4,5,6,7,0],"n":3},{"user":99,"history":[1]},{"user":2,"history":[5],"n":3}]}`,
		200, "{\"responses\":[{\"items\":[2,3,4],\"scores\":[0.75,0.0625,0]},{\"error\":\"user 99 out of range [0,3)\"},{}]}\n")

	for _, ev := range []string{
		`{"user":1,"item":2}`, `{"user":1,"item":3}`, `{"user":1,"item":4}`, `{"user":1,"item":5}`,
		`{"user":1,"item":6}`, `{"user":1,"item":7}`, `{"user":1,"item":0}`, `{"user":2,"item":4}`,
	} {
		if code, body := post("/consume", ev); code != http.StatusOK {
			t.Fatalf("consume %s: %d %s", ev, code, body)
		}
	}
	hits := srv.online.cache.Stats().Hits
	for _, pass := range []string{"uncached", "cached"} {
		check("recommend/user "+pass, "/recommend/user", `{"user":1,"n":3}`,
			200, "{\"items\":[2,3,4],\"scores\":[0.75,0.0625,0]}\n")
		check("recommend/user empty "+pass, "/recommend/user", `{"user":2,"n":3}`,
			200, "{\"items\":[],\"scores\":[]}\n")
	}
	if got := srv.online.cache.Stats().Hits - hits; got != 2 {
		t.Errorf("cache hits over the second pass = %d, want 2", got)
	}
	check("recommend/user rejects history", "/recommend/user", `{"user":1,"history":[1]}`,
		400, "{\"error\":\"json: unknown field \\\"history\\\"\"}\n")
}
