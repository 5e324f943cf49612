package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

// Wire protocol headers. Every replication exchange carries the
// sender's epoch so neither side can act on a deposed timeline.
const (
	// EpochHeader carries the requester's epoch on stream/snapshot
	// requests and the responder's on every reply.
	EpochHeader = "X-RRC-Epoch"
	// NextLSNHeader carries the primary's commit horizon for the shard
	// on stream replies — the follower's lag is this minus its own next.
	NextLSNHeader = "X-RRC-Next-LSN"
	// SnapshotLSNHeader carries the applied LSN of a served snapshot.
	SnapshotLSNHeader = "X-RRC-Snapshot-LSN"
	// PartitionHeader carries a node's partition identity (i/c@g, the
	// shard.PartitionID wire form) on replication exchanges. Epochs only
	// fence within one partition's timeline, so a follower accidentally
	// pointed at another partition's primary must be refused before it
	// tails a single record — cross-partition replication would graft
	// one key range's WAL onto another's.
	PartitionHeader = "X-RRC-Partition"
)

// Source is the primary-side surface the stream server reads: the
// shard pool, narrowed to committed-log reads and snapshot serving.
type Source interface {
	// Shards returns the pool's shard count.
	Shards() int
	// NextLSN returns shard's commit horizon.
	NextLSN(shard int) (uint64, error)
	// Appended returns a channel closed by shard's next committed
	// append. The stream handler takes it before NextLSN, so a record
	// committed in between still wakes the long-poll.
	Appended(shard int) <-chan struct{}
	// Read delivers up to max committed records with LSN ≥ from and
	// returns the resume position. wal.ErrPruned → the follower must
	// reseed from a snapshot.
	Read(shard int, from uint64, max int, fn func(lsn uint64, payload []byte) error) (uint64, error)
	// Snapshot returns the path and applied LSN of shard's newest
	// snapshot, creating one if none exists.
	Snapshot(shard int) (path string, lsn uint64, err error)
}

// ErrorBody is the JSON body of a replication error response. On an
// epoch conflict (412) it tells the loser exactly how to converge: the
// winner's meta to adopt, and — for a deposed primary — the LSN its
// timeline diverged at, i.e. where to truncate.
type ErrorBody struct {
	Error         string `json:"error"`
	Epoch         uint64 `json:"epoch"`
	Meta          *Meta  `json:"meta,omitempty"`
	DivergenceLSN uint64 `json:"divergence_lsn,omitempty"`
	Truncate      bool   `json:"truncate,omitempty"`
	OldestLSN     uint64 `json:"oldest_lsn,omitempty"`
	// Partition carries the responder's partition identity on a 421
	// (cross-partition request) — the hint the misrouted side folds in.
	Partition *shard.PartitionID `json:"partition,omitempty"`
}

// Server is the primary-side replication handler set: the per-shard
// record stream, the snapshot download, and the epoch exchange. It
// holds no replication state of its own — epoch and meta live with the
// owner (the rrc-server process) behind the accessor funcs, so the
// same handlers keep working across a promotion or fencing transition.
type Server struct {
	Source Source
	// Meta returns the node's current replication meta (epoch+history).
	Meta func() Meta
	// SawHigherEpoch, when non-nil, is told about any request carrying
	// an epoch above our own — the signal a deposed primary uses to
	// fence its ingest path even before an operator notices.
	SawHigherEpoch func(epoch uint64)
	// Partition, when non-nil, returns this node's partition identity.
	// Every reply carries it in PartitionHeader, and a request stamped
	// with a different partition (index or count) is refused with 421 —
	// cross-partition misconfiguration must fail before any record moves.
	Partition func() shard.PartitionID

	// MaxBatch bounds records per stream response; 0 → wal batch default.
	MaxBatch int
	// Wait bounds the long-poll when the follower is caught up: the
	// handler holds the request open until a new record lands or Wait
	// elapses, then returns an empty 200. 0 → 2s.
	Wait time.Duration

	mu sync.Mutex // serializes SawHigherEpoch dispatch
}

// Register wires the replication endpoints onto mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /replica/stream", s.handleStream)
	mux.HandleFunc("GET /replica/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /replica/epoch", s.handleEpoch)
}

func (s *Server) wait() time.Duration {
	if s.Wait > 0 {
		return s.Wait
	}
	return 2 * time.Second
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// writeUnavailable is writeJSON(503) with the Retry-After every 503
// from this server carries: the source errors behind it (a shard mid
// restart, a snapshot mid flush) clear on the order of a second, and a
// follower that backs off longer than that just accumulates lag.
func writeUnavailable(w http.ResponseWriter, body any) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, body)
}

// checkPartition enforces partition identity on a replication request:
// a requester stamping a different partition index or count is answered
// 421 (Misdirected Request) with our identity as the hint, and nothing
// streams. Requests without the header — ops tooling, pre-partitioning
// followers — are let through, as are servers with no identity
// configured. Generations may differ: a mid-resize pair re-identifies
// one node at a time.
func (s *Server) checkPartition(w http.ResponseWriter, r *http.Request) bool {
	if s.Partition == nil {
		return true
	}
	own := s.Partition()
	w.Header().Set(PartitionHeader, own.String())
	raw := r.Header.Get(PartitionHeader)
	if raw == "" {
		return true
	}
	theirs, err := shard.ParsePartitionID(raw)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("bad %s: %v", PartitionHeader, err), Partition: &own})
		return false
	}
	if theirs.Index != own.Index || theirs.Count != own.Count {
		writeJSON(w, http.StatusMisdirectedRequest, ErrorBody{
			Error:     fmt.Sprintf("request is for partition %s but this node owns %s: cross-partition replication refused", theirs, own),
			Partition: &own,
		})
		return false
	}
	return true
}

// checkEpoch compares the requester's epoch header against ours and
// resolves conflicts; it reports whether the request may proceed.
// Requests without the header (ops tooling, curl) are let through — the
// fencing contract binds replicas, which always send it.
func (s *Server) checkEpoch(w http.ResponseWriter, r *http.Request, shard int) (Meta, bool) {
	m := s.Meta()
	raw := r.Header.Get(EpochHeader)
	if raw == "" {
		return m, true
	}
	theirs, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("bad %s: %v", EpochHeader, err), Epoch: m.Epoch})
		return m, false
	}
	switch {
	case theirs > m.Epoch:
		// The requester lives on a newer timeline: we are the deposed
		// node. Refuse and fence ourselves — never serve records minted
		// after the promotion we missed.
		if s.SawHigherEpoch != nil {
			s.mu.Lock()
			s.SawHigherEpoch(theirs)
			s.mu.Unlock()
		}
		writeJSON(w, http.StatusPreconditionFailed, ErrorBody{
			Error: fmt.Sprintf("request epoch %d above ours %d: this node is deposed", theirs, m.Epoch),
			Epoch: m.Epoch,
		})
		return m, false
	case theirs < m.Epoch:
		// The requester is behind: tell it where its timeline split so
		// it can truncate its divergent tail and adopt our history.
		body := ErrorBody{
			Error: fmt.Sprintf("request epoch %d below ours %d: truncate and adopt", theirs, m.Epoch),
			Epoch: m.Epoch,
			Meta:  &m,
		}
		if shard >= 0 {
			if div, ok := m.DivergenceLSN(shard, theirs); ok {
				body.DivergenceLSN = div
				body.Truncate = true
			}
		}
		writeJSON(w, http.StatusPreconditionFailed, body)
		return m, false
	}
	return m, true
}

func (s *Server) shardParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	shard, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil || shard < 0 || shard >= s.Source.Shards() {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf("shard must be in [0,%d)", s.Source.Shards())})
		return 0, false
	}
	return shard, true
}

// handleStream serves GET /replica/stream?shard=i&from=<lsn>: committed
// records from LSN `from` as CRC-framed chunks. A caught-up follower is
// long-polled briefly before an empty 200, so steady-state lag is one
// round trip, not one poll interval.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if !s.checkPartition(w, r) {
		return
	}
	shard, ok := s.shardParam(w, r)
	if !ok {
		return
	}
	m, ok := s.checkEpoch(w, r, shard)
	if !ok {
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil || from == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "from must be a positive LSN", Epoch: m.Epoch})
		return
	}

	// Long-poll: sleep until a commit moves the horizon past `from`, the
	// follower goes away, or Wait elapses. A log swap (restart, truncate,
	// reseed) signals nothing; its waiters return at the deadline.
	deadline := time.NewTimer(s.wait())
	defer deadline.Stop()
	var next uint64
poll:
	for {
		appended := s.Source.Appended(shard)
		next, err = s.Source.NextLSN(shard)
		if err != nil {
			writeUnavailable(w, ErrorBody{Error: err.Error(), Epoch: m.Epoch})
			return
		}
		if next > from {
			break
		}
		select {
		case <-appended:
		case <-r.Context().Done():
			break poll
		case <-deadline.C:
			break poll
		}
	}

	w.Header().Set(EpochHeader, strconv.FormatUint(m.Epoch, 10))
	w.Header().Set(NextLSNHeader, strconv.FormatUint(next, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	if next <= from {
		return // caught up; empty 200, headers carry the horizon
	}
	resume, err := s.Source.Read(shard, from, s.MaxBatch, func(lsn uint64, payload []byte) error {
		return wal.WriteFrame(w, lsn, payload)
	})
	if errors.Is(err, wal.ErrPruned) && resume == from {
		// Nothing written yet: the follower is behind the retained log.
		// Point it at the snapshot instead.
		_, snapLSN, serr := s.Source.Snapshot(shard)
		body := ErrorBody{Error: "requested lsn pruned: reseed from snapshot", Epoch: m.Epoch}
		if serr == nil {
			body.OldestLSN = snapLSN + 1
		}
		w.Header().Del("Content-Type")
		writeJSON(w, http.StatusGone, body)
		return
	}
	// Mid-stream errors cannot change the status line; the truncated
	// frame fails its CRC on the follower, which resumes from its last
	// applied LSN. Nothing to do here.
}

// handleSnapshot serves the shard's newest snapshot file for reseeding,
// its applied LSN in SnapshotLSNHeader.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.checkPartition(w, r) {
		return
	}
	shard, ok := s.shardParam(w, r)
	if !ok {
		return
	}
	m, ok := s.checkEpoch(w, r, shard)
	if !ok {
		return
	}
	path, lsn, err := s.Source.Snapshot(shard)
	if err != nil {
		writeUnavailable(w, ErrorBody{Error: err.Error(), Epoch: m.Epoch})
		return
	}
	f, err := os.Open(path)
	if err != nil {
		writeUnavailable(w, ErrorBody{Error: err.Error(), Epoch: m.Epoch})
		return
	}
	defer f.Close()
	w.Header().Set(EpochHeader, strconv.FormatUint(m.Epoch, 10))
	w.Header().Set(SnapshotLSNHeader, strconv.FormatUint(lsn, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f)
}

// handleEpoch serves the node's replication meta — the handshake a
// joining follower (or a peer startup check) uses to learn the current
// epoch and promotion history.
func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	if !s.checkPartition(w, r) {
		return
	}
	if _, ok := s.checkEpoch(w, r, -1); !ok {
		return
	}
	m := s.Meta()
	w.Header().Set(EpochHeader, strconv.FormatUint(m.Epoch, 10))
	writeJSON(w, http.StatusOK, m)
}
