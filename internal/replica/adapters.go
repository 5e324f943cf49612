package replica

import (
	"tsppr/internal/shard"
)

// PoolSource adapts a shard.Pool to the primary-side Source surface.
type PoolSource struct{ Pool *shard.Pool }

func (s PoolSource) Shards() int { return s.Pool.N() }

func (s PoolSource) NextLSN(i int) (uint64, error) { return s.Pool.Shard(i).NextLSN() }

func (s PoolSource) Appended(i int) <-chan struct{} { return s.Pool.Shard(i).Appended() }

func (s PoolSource) Read(i int, from uint64, max int, fn func(lsn uint64, payload []byte) error) (uint64, error) {
	return s.Pool.Shard(i).ReadWAL(from, max, fn)
}

func (s PoolSource) Snapshot(i int) (string, uint64, error) {
	return s.Pool.Shard(i).SnapshotInfo()
}

// PoolTarget adapts a shard.Pool to the follower-side Target surface.
type PoolTarget struct{ Pool *shard.Pool }

func (t PoolTarget) Shards() int { return t.Pool.N() }

func (t PoolTarget) NextLSN(i int) (uint64, error) { return t.Pool.Shard(i).NextLSN() }

func (t PoolTarget) Apply(i int, lsn uint64, payload []byte) (bool, error) {
	return t.Pool.Shard(i).ApplyReplicated(lsn, payload)
}

func (t PoolTarget) TruncateFrom(i int, lsn uint64) error {
	return t.Pool.Shard(i).TruncateAndReload(lsn)
}

func (t PoolTarget) Reseed(i int, snapLSN uint64, populate func(dir string) error) error {
	return t.Pool.Shard(i).Reseed(snapLSN, populate)
}

// NextLSNs collects every shard's commit horizon — the per-shard bases
// a promotion records in its history entry.
func NextLSNs(p *shard.Pool) ([]uint64, error) {
	out := make([]uint64, p.N())
	for i := range out {
		lsn, err := p.Shard(i).NextLSN()
		if err != nil {
			return nil, err
		}
		out[i] = lsn
	}
	return out, nil
}
