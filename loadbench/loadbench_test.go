package main

import (
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tsppr/internal/seq"
)

func TestTailPercentileRule(t *testing.T) {
	ascending := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n          int
		p, wantQ   float64
		wantV      float64
		wantBeyond int
	}{
		{n: 1000, p: 0.99, wantQ: 0.99, wantV: 990, wantBeyond: 10},
		{n: 5000, p: 0.99, wantQ: 0.99, wantV: 4950, wantBeyond: 50},
		// Fewer than 1000 samples: the highest quantile with 10 beyond it.
		{n: 500, p: 0.99, wantQ: 0.98, wantV: 490, wantBeyond: 10},
		{n: 100, p: 0.5, wantQ: 0.5, wantV: 50, wantBeyond: 50},
		// Too few for even that: never below the median.
		{n: 15, p: 0.99, wantQ: 0.5, wantV: 8, wantBeyond: 7},
	} {
		v, q, n := tailPercentile(ascending(tc.n), tc.p)
		if n != tc.n || math.Abs(q-tc.wantQ) > 1e-12 || v != tc.wantV {
			t.Errorf("n=%d p=%v: got v=%v q=%v n=%d, want v=%v q=%v", tc.n, tc.p, v, q, n, tc.wantV, tc.wantQ)
		}
		if beyond := tc.n - int(v); beyond != tc.wantBeyond {
			t.Errorf("n=%d p=%v: %d samples beyond, want %d", tc.n, tc.p, beyond, tc.wantBeyond)
		}
	}
}

func TestTailPercentileCountsFailuresAsInfinite(t *testing.T) {
	v := make([]float64, 0, 1000)
	for i := 0; i < 985; i++ {
		v = append(v, 100)
	}
	for i := 0; i < 15; i++ { // 1.5% failed: the p99 lands on a failure
		v = append(v, inf)
	}
	sort.Float64s(v)
	if got, _, _ := tailPercentile(v, 0.99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with 1.5%% failures = %v, want +Inf", got)
	}
	if got, _, _ := tailPercentile(v, 0.5); got != 100 {
		t.Fatalf("p50 = %v, want 100", got)
	}
}

func TestWindowedMedian(t *testing.T) {
	var s []timed
	// Three 1-second windows; the middle one holds a burst.
	for w, lat := range []float64{100, 5000, 110} {
		for i := 0; i < 200; i++ {
			s = append(s, timed{at: time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond, us: lat})
		}
	}
	v, q, n := windowed(s, time.Second, 3, 0.99)
	if v != 110 || n != 600 || math.Abs(q-0.95) > 1e-12 {
		t.Fatalf("windowed p99 = %v (q=%v, n=%d), want the median window's 110 at q=0.95 over 600", v, q, n)
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	m := mix{readShare: 0.95, zipfS: 1}
	users := newUserPicker(2000, 1, 7, 2)
	a := poissonSchedule(7, 2000, 3*time.Second, m, users)
	b := poissonSchedule(7, 2000, 3*time.Second, m, newUserPicker(2000, 1, 7, 2))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := poissonSchedule(8, 2000, 3*time.Second, m, newUserPicker(2000, 1, 8, 2))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Poisson at 2000/s over 3s: 6000 ± a few standard deviations (√6000 ≈ 77).
	if n := len(a); n < 5600 || n > 6400 {
		t.Fatalf("%d arrivals, want about 6000", n)
	}
	reads := 0
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatal("arrivals out of due order")
		}
		if x.kind == opRead {
			reads++
		}
	}
	if share := float64(reads) / float64(len(a)); share < 0.93 || share > 0.97 {
		t.Fatalf("read share %.3f, want about 0.95", share)
	}
}

func TestZipfBounds(t *testing.T) {
	const n = 2000
	z := newZipf(n, 1)
	r := rand.New(rand.NewPCG(1, 2))
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		k := z.sample(r)
		if k < 0 || k >= n {
			t.Fatalf("rank %d out of [0,%d)", k, n)
		}
		counts[k]++
	}
	// P(rank 0) = 1/H_n with H_2000 ≈ 8.178.
	if p := float64(counts[0]) / draws; math.Abs(p-1/8.178) > 0.005 {
		t.Fatalf("P(rank 0) = %.4f, want about %.4f", p, 1/8.178)
	}
	if z.cdf[n-1] != 1 {
		t.Fatalf("cdf ends at %v, want 1", z.cdf[n-1])
	}
	// The largest uniform draw still maps inside the range.
	if k := sort.SearchFloat64s(z.cdf, math.Nextafter(1, 0)); k >= n {
		t.Fatalf("rank %d for a draw just below 1", k)
	}
}

func TestLanesBalancedAndPinned(t *testing.T) {
	p := newUserPicker(2000, 1, 3, 2)
	var load [2]float64
	prev := 0.0
	for k, c := range p.z.cdf {
		load[p.lane(p.perm[k])] += c - prev
		prev = c
	}
	if math.Abs(load[0]-load[1]) > 0.01 {
		t.Fatalf("expected lane loads %v, want within 1%%", load)
	}
	s := newClosedStream(3, 1, mix{readShare: 1, zipfS: 1}, p)
	for i := 0; i < 1000; i++ {
		if u, _ := s.next(); p.lane(u) != 1 {
			t.Fatalf("closed stream of lane 1 drew user %d of lane %d", u, p.lane(u))
		}
	}
}

func TestMetricsDeltaParsing(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(`# HELP rrc_http_request_seconds HTTP request latency by endpoint.
# TYPE rrc_http_request_seconds histogram
rrc_http_request_seconds_bucket{endpoint="/consume",le="0.001"} 3
rrc_http_request_seconds_sum{endpoint="/consume"} 0.5
rrc_http_request_seconds_count{endpoint="/consume"} 10
rrc_http_request_seconds_sum{endpoint="/recommend/user"} 1
rrc_http_request_seconds_count{endpoint="/recommend/user"} 100
rrc_rescache_hits_total 40
rrc_replica_lag_records{shard="0"} 2
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(`rrc_http_request_seconds_sum{endpoint="/consume"} 0.8
rrc_http_request_seconds_count{endpoint="/consume"} 16
rrc_http_request_seconds_sum{endpoint="/recommend/user"} 1.5
rrc_http_request_seconds_count{endpoint="/recommend/user"} 200
rrc_rescache_hits_total 90
rrc_rescache_misses_total 10
rrc_replica_lag_records{shard="0"} 1
rrc_replica_lag_records{shard="1"} 7
`))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	if got := d.histMean("rrc_http_request_seconds", `endpoint="/consume"`); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("consume mean = %v, want 0.3/6 = 0.05", got)
	}
	if got := d.histMean("rrc_http_request_seconds"); math.Abs(got-0.8/106) > 1e-12 {
		t.Errorf("all-endpoint mean = %v, want 0.8/106", got)
	}
	if got := d.sum("rrc_rescache_hits_total"); got != 50 {
		t.Errorf("hits delta = %v, want 50", got)
	}
	if got := d.sum("rrc_rescache_misses_total"); got != 10 {
		t.Errorf("misses delta (absent before) = %v, want 10", got)
	}
	if got := after.sum("rrc_replica_lag_records"); got != 8 {
		t.Errorf("lag summed over shards = %v, want 8", got)
	}
	if got := d.histMean("rrc_engine_recommend_seconds"); got != 0 {
		t.Errorf("mean of an absent histogram = %v, want 0", got)
	}
	if _, err := parseMetrics(strings.NewReader("rrc_bad_line\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

// TestDueTimeChargesStall injects a 60ms stall into one reply of a lane
// whose arrivals are due every 5ms: every request queued behind the
// stall is charged from its own due time, and none of it counts as the
// generator's lateness.
func TestDueTimeChargesStall(t *testing.T) {
	const stall = 60 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 5 {
			time.Sleep(stall)
		}
		// Chunked on purpose: the client must handle both framings.
		w.Header().Set("Content-Type", "application/json")
		w.(http.Flusher).Flush()
		_, _ = w.Write([]byte(`{"items":[1],"scores":[0.5]}`))
	}))
	defer srv.Close()

	fx := &fixture{seeded: []seq.Sequence{{1}}, test: []seq.Sequence{{2}}}
	picker := newUserPicker(1, 0, 1, 1)
	ld, err := newLoad(fx, srv.URL, 1, 100, mix{readShare: 1}, picker)
	if err != nil {
		t.Fatal(err)
	}
	defer ld.close()
	var arr []arrival
	for i := 0; i < 20; i++ {
		arr = append(arr, arrival{due: time.Duration(i) * 5 * time.Millisecond, kind: opRead})
	}
	tl := ld.openLoop(arr)
	if tl.failed() != 0 || len(tl.readLat) != 20 {
		t.Fatalf("failures %v, %d latencies", tl.fails, len(tl.readLat))
	}
	// Request 4 (due 20ms) stalls until ~80ms; requests due at 25..75ms
	// wait behind it, so each is charged at least 80ms − its due time.
	for i := 5; i < 16; i++ {
		due := time.Duration(i) * 5 * time.Millisecond
		if min := us(20*time.Millisecond + stall - due); tl.readLat[i].us < min {
			t.Errorf("request due at %v: latency %.0fµs, want ≥ %.0fµs", due, tl.readLat[i].us, min)
		}
	}
	if tl.readLat[4].us < us(stall) {
		t.Errorf("stalled request latency %.0fµs, want ≥ %v", tl.readLat[4].us, stall)
	}
	sort.Float64s(tl.late)
	if worst := tl.late[len(tl.late)-1]; worst > 5000 {
		t.Errorf("generator lateness %.0fµs: the stall was charged to the generator", worst)
	}
}
