package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// opKind is what one arrival asks of the fleet.
type opKind uint8

const (
	opRead    opKind = iota // POST /recommend/user
	opConsume               // POST /consume
	opStep                  // POST /consume, then /recommend/user once it is acknowledged
)

// arrival is one scheduled operation of the open-loop phase.
type arrival struct {
	due  time.Duration // offset from the phase start
	user int32
	kind opKind
}

// zipf samples ranks in [0, n) with P(k) ∝ 1/(k+1)^s by inverting the
// cumulative distribution. Unlike math/rand's Zipf it accepts s = 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var total float64
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipf) sample(r *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, r.Float64())
	return min(k, len(z.cdf)-1) // guards the cdf's last entry rounding below 1
}

// mix is a workload's traffic shape.
type mix struct {
	step      bool    // every arrival is a consume-then-read step
	readShare float64 // share of reads among single-op arrivals
	zipfS     float64 // user skew; 0 = uniform
}

// userPicker draws users for one workload and seed: Zipf ranks mapped
// through a seeded permutation, so the hottest user is not always id 0.
// It also pins each user to a connection lane, so each user's requests
// are sent in order over one connection.
type userPicker struct {
	z     *zipf
	perm  []int
	n     int
	lanes []uint8 // lane of each user
}

func newUserPicker(n int, s float64, seed uint64, lanes int) *userPicker {
	p := &userPicker{n: n, lanes: make([]uint8, n)}
	if s <= 0 {
		for u := range p.lanes {
			p.lanes[u] = uint8(u % lanes)
		}
		return p
	}
	p.z = newZipf(n, s)
	p.perm = rand.New(rand.NewPCG(seed, 0x7065726d)).Perm(n)
	// Greedy balance, hottest rank first: each rank joins the lane with
	// the least expected traffic so far. The split is then the same for
	// every seed, instead of hinging on which lane the hottest users hash to.
	load := make([]float64, lanes)
	prev := 0.0
	for k, c := range p.z.cdf {
		best := 0
		for l := range load {
			if load[l] < load[best] {
				best = l
			}
		}
		load[best] += c - prev
		prev = c
		p.lanes[p.perm[k]] = uint8(best)
	}
	return p
}

func (p *userPicker) lane(user int) int { return int(p.lanes[user]) }

func (p *userPicker) pick(r *rand.Rand) int {
	if p.z == nil {
		return r.IntN(p.n)
	}
	return p.perm[p.z.sample(r)]
}

func (m mix) kind(r *rand.Rand) opKind {
	switch {
	case m.step:
		return opStep
	case r.Float64() < m.readShare:
		return opRead
	default:
		return opConsume
	}
}

// poissonSchedule draws the open-loop arrivals for one seed:
// exponential inter-arrival gaps at rate per second over d.
func poissonSchedule(seed uint64, rate float64, d time.Duration, m mix, users *userPicker) []arrival {
	r := rand.New(rand.NewPCG(seed, 0x6f70656e))
	var out []arrival
	var t float64
	for {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, arrival{due: due, user: int32(users.pick(r)), kind: m.kind(r)})
	}
}

// closedStream yields an endless op sequence for one closed-loop lane:
// the workload's mix restricted to the lane's own users.
type closedStream struct {
	r     *rand.Rand
	m     mix
	users *userPicker
	lane  int
}

func newClosedStream(seed uint64, lane int, m mix, users *userPicker) *closedStream {
	return &closedStream{r: rand.New(rand.NewPCG(seed, 0x636c6f00+uint64(lane))), m: m, users: users, lane: lane}
}

func (c *closedStream) next() (user int, kind opKind) {
	for {
		u := c.users.pick(c.r)
		if c.users.lane(u) == c.lane {
			return u, c.m.kind(c.r)
		}
	}
}

// tailPercentile reports the p-quantile of samples by nearest rank, or,
// when fewer than 10 samples lie beyond p, the highest quantile that
// still has 10 beyond it (never below the median). Failed requests are
// +Inf samples, so they rank above every success. It returns the value,
// the quantile actually used and the sample count; sorted must be in
// ascending order.
func tailPercentile(sorted []float64, p float64) (v, q float64, n int) {
	n = len(sorted)
	if n == 0 {
		return math.NaN(), p, 0
	}
	q = math.Max(0.5, math.Min(p, 1-10/float64(n)))
	rank := int(math.Ceil(q*float64(n))) - 1
	return sorted[max(rank, 0)], q, n
}

// windowed splits samples into n windows of the phase by due offset
// (window length win) and reports the median over windows of each
// window's tailPercentile at p, with the quantile used in the median
// window and the total sample count. Per-window figures keep one burst
// of outside interference from setting the whole run's tail.
func windowed(samples []timed, win time.Duration, n int, p float64) (v, q float64, total int) {
	wins := make([][]float64, n)
	for _, s := range samples {
		w := min(int(s.at/win), n-1)
		wins[w] = append(wins[w], s.us)
	}
	type wv struct{ v, q float64 }
	var vals []wv
	for _, w := range wins {
		if len(w) == 0 {
			continue
		}
		sort.Float64s(w)
		v, q, _ := tailPercentile(w, p)
		vals = append(vals, wv{v, q})
	}
	if len(vals) == 0 {
		return math.NaN(), p, 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })
	m := vals[(len(vals)-1)/2]
	return m.v, m.q, len(samples)
}
