package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"tsppr/internal/dataset"
	"tsppr/internal/seq"
	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

// Fixture parameters shared by every workload: the paper's defaults
// (K=40, |W|=100, Ω=10, S=10 are rrc-train's own defaults) over a
// 2000-user gowalla-sim log.
const (
	fixtureUsers  = 2000
	fixtureK      = 40
	fixtureWindow = 100
	fixtureShards = 2
	trainFrac     = 0.7
)

const manifestName = "MANIFEST.json"

// fixtureSpec identifies one cached fixture build.
type fixtureSpec struct {
	Seed   uint64 `json:"seed"`
	Users  int    `json:"users"`
	K      int    `json:"k"`
	Window int    `json:"window"`
}

func (s fixtureSpec) key() string {
	return fmt.Sprintf("gowalla-u%d-k%d-w%d-seed%d", s.Users, s.K, s.Window, s.Seed)
}

// manifest is written last into a finished fixture: every file's
// SHA-256, so a stale or partial fixture is detected and rebuilt.
type manifest struct {
	Spec     fixtureSpec       `json:"spec"`
	Tools    map[string]string `json:"tools"` // SHA-256 of the programs that built it
	Files    map[string]string `json:"files"`
	BuildS   float64           `json:"build_s"`
	ShardLSN []uint64          `json:"shard_lsn"`
}

// fixture is a verified, read-only fixture plus the per-user streams
// derived from its event log exactly as rrc-train derives them.
type fixture struct {
	dir      string
	model    string
	events   string
	shardLSN []uint64 // applied LSN of each shard after seeding
	buildS   float64  // build time of this fixture (0 when it was cached)
	checkS   float64  // checksum verification time

	numItems int
	seeded   []seq.Sequence // per user: the last |W| training events, as seeded
	test     []seq.Sequence // per user: the held-out suffix consumes replay
}

// loadFixture returns the fixture for spec under cacheDir, building it
// when it is missing or fails its checksum.
func loadFixture(cacheDir, binDir string, spec fixtureSpec) (*fixture, error) {
	dir := filepath.Join(cacheDir, spec.key())
	start := time.Now()
	tools, err := toolDigests(binDir)
	if err != nil {
		return nil, err
	}
	man, err := verifyFixture(dir, spec, tools)
	checkS := time.Since(start).Seconds()
	built := 0.0
	if err != nil {
		logf("fixture %s unusable (%v); rebuilding", spec.key(), err)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if man, err = buildFixture(dir, binDir, spec, tools); err != nil {
			return nil, fmt.Errorf("build fixture: %w", err)
		}
		built = man.BuildS
	}
	f := &fixture{
		dir:      dir,
		model:    filepath.Join(dir, "model.tsppr"),
		events:   filepath.Join(dir, "events"),
		shardLSN: man.ShardLSN,
		buildS:   built,
		checkS:   checkS,
	}
	if err := f.loadStreams(spec.Window); err != nil {
		return nil, err
	}
	return f, nil
}

// loadStreams re-derives the per-user sequences the way rrc-train does
// (filter, compact item ids, split), so item ids are the model's.
func (f *fixture) loadStreams(window int) error {
	ds, err := dataset.LoadFile(filepath.Join(f.dir, "data.tsv"))
	if err != nil {
		return err
	}
	ds = ds.FilterMinTrain(trainFrac, window)
	ds, f.numItems = ds.Compact()
	train, test := ds.Split(trainFrac)
	f.seeded = make([]seq.Sequence, len(train))
	for u, s := range train {
		f.seeded[u] = s[max(0, len(s)-window):]
		if len(test[u]) == 0 {
			return fmt.Errorf("user %d has no held-out events to replay", u)
		}
	}
	f.test = test
	return nil
}

func (f *fixture) numUsers() int { return len(f.seeded) }

// toolDigests hashes the programs whose output the fixture is: the data
// generator, the trainer, and this binary, which seeds the events dir.
// A fixture built by other code is stale.
func toolDigests(binDir string) (map[string]string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for name, path := range map[string]string{
		"rrc-datagen": filepath.Join(binDir, "rrc-datagen"),
		"rrc-train":   filepath.Join(binDir, "rrc-train"),
		"loadbench":   self,
	} {
		sum, err := hashFile(path)
		if err != nil {
			return nil, err
		}
		out[name] = sum
	}
	return out, nil
}

func hashFile(path string) (string, error) {
	fh, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer fh.Close()
	h := sha256.New()
	if _, err := io.Copy(h, fh); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// verifyFixture checks the manifest against spec and the tools that
// would build it now, and every file's hash.
func verifyFixture(dir string, spec fixtureSpec, tools map[string]string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if man.Spec != spec {
		return nil, fmt.Errorf("manifest is for %+v", man.Spec)
	}
	for name, sum := range tools {
		if man.Tools[name] != sum {
			return nil, fmt.Errorf("built by a different %s", name)
		}
	}
	got, err := hashTree(dir)
	if err != nil {
		return nil, err
	}
	if len(got) != len(man.Files) {
		return nil, fmt.Errorf("%d files on disk, %d in manifest", len(got), len(man.Files))
	}
	for name, sum := range man.Files {
		if got[name] != sum {
			return nil, fmt.Errorf("checksum mismatch on %s", name)
		}
	}
	return &man, nil
}

// hashTree returns the SHA-256 of every regular file under dir except
// the manifest, keyed by slash-separated relative path.
func hashTree(dir string) (map[string]string, error) {
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil || rel == manifestName {
			return err
		}
		sum, err := hashFile(path)
		out[filepath.ToSlash(rel)] = sum
		return err
	})
	return out, err
}

// buildFixture generates the data, trains the model and seeds the
// events dir in a scratch directory, then renames it into place with
// its manifest, so a crash mid-build never leaves a usable-looking
// fixture behind.
func buildFixture(dir, binDir string, spec fixtureSpec, tools map[string]string) (*manifest, error) {
	start := time.Now()
	tmp := dir + ".partial"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	seed := strconv.FormatUint(spec.Seed, 10)
	steps := [][]string{
		{"rrc-datagen", "-preset", "gowalla", "-users", strconv.Itoa(spec.Users), "-seed", seed, "-out", "data.tsv"},
		{"rrc-train", "-data", "data.tsv", "-out", "model.tsppr", "-seed", seed,
			"-k", strconv.Itoa(spec.K), "-window", strconv.Itoa(spec.Window), "-checkpoint-every", "0"},
	}
	for _, argv := range steps {
		cmd := exec.Command(filepath.Join(binDir, argv[0]), argv[1:]...)
		cmd.Dir = tmp
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", argv[0], err)
		}
	}
	f := &fixture{dir: tmp}
	if err := f.loadStreams(spec.Window); err != nil {
		return nil, err
	}
	lsns, err := seedEvents(filepath.Join(tmp, "events"), f, spec.Window)
	if err != nil {
		return nil, fmt.Errorf("seed events: %w", err)
	}
	files, err := hashTree(tmp)
	if err != nil {
		return nil, err
	}
	man := &manifest{Spec: spec, Tools: tools, Files: files, BuildS: time.Since(start).Seconds(), ShardLSN: lsns}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, manifestName), raw, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	logf("fixture %s built in %.1fs", spec.key(), man.BuildS)
	return man, nil
}

// poolConfig is the shard configuration rrc-server uses for the
// fixture's events dir under the given fsync policy (server defaults
// for everything the benchmark does not set).
func poolConfig(f *fixture, window int, fsync wal.SyncPolicy) shard.Config {
	return shard.Config{
		Shards:        fixtureShards,
		WindowCap:     window,
		NumUsers:      f.numUsers(),
		NumItems:      f.numItems,
		Fsync:         fsync,
		FsyncInterval: wal.DefaultSyncEvery,
		SnapshotEvery: 4096,
	}
}

// seedEvents ingests every user's seeded prefix through the shard pool
// and closes it, leaving the snapshot + WAL the server recovers. It
// returns each shard's applied LSN.
func seedEvents(root string, f *fixture, window int) ([]uint64, error) {
	pool, err := shard.Open(root, poolConfig(f, window, wal.SyncNever))
	if err != nil {
		return nil, err
	}
	for u, s := range f.seeded {
		for _, it := range s {
			if _, _, err := pool.Ingest(u, it); err != nil {
				pool.Close()
				return nil, err
			}
		}
	}
	var lsns []uint64
	for _, st := range pool.Statuses() {
		lsns = append(lsns, st.AppliedLSN)
	}
	return lsns, pool.Close()
}

// copyTree copies the regular files under src into dst (which must not
// exist), preserving the directory layout.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return errors.New("fixture holds a non-regular file: " + rel)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// sortedKeys is a small helper for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
