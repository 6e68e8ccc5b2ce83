package modelstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"privascope/internal/core"
	"privascope/internal/dataflow"
)

// ErrNotFound is returned by Store.Load when no artifact exists for the
// fingerprint.
var ErrNotFound = errors.New("modelstore: no artifact for fingerprint")

// artifactExt is the on-disk extension of persisted compiled models.
const artifactExt = ".psm"

// Store is a registry directory holding one artifact per model fingerprint.
// Writes are atomic (temp file in the same directory, fsync, rename), so a
// concurrent reader — in this process or another — sees either the old
// artifact, the new one, or nothing, never a torn file. A Store is safe for
// concurrent use.
type Store struct {
	dir string
}

// Open creates the registry directory if needed and returns a Store over it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("modelstore: empty registry directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelstore: create registry: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the registry directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the artifact path for a fingerprint. Fingerprints are
// lower-case hex (dataflow.Fingerprint); anything else is rejected so a
// crafted fingerprint can never traverse outside the registry.
func (s *Store) Path(fingerprint string) (string, error) {
	if fingerprint == "" {
		return "", fmt.Errorf("modelstore: empty fingerprint")
	}
	for _, c := range fingerprint {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("modelstore: fingerprint %q is not lower-case hex", fingerprint)
		}
	}
	return filepath.Join(s.dir, fingerprint+artifactExt), nil
}

// Has reports whether an artifact exists for the fingerprint.
func (s *Store) Has(fingerprint string) bool {
	path, err := s.Path(fingerprint)
	if err != nil {
		return false
	}
	_, err = os.Stat(path)
	return err == nil
}

// Save encodes the model and atomically installs it under its fingerprint,
// replacing any previous artifact. The fingerprint must be the model's own
// (Encode embeds it; Load verifies it).
func (s *Store) Save(fingerprint string, p *core.PrivacyLTS) error {
	path, err := s.Path(fingerprint)
	if err != nil {
		return err
	}
	data, err := Encode(p)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "."+fingerprint+".tmp-*")
	if err != nil {
		return fmt.Errorf("modelstore: create temp artifact: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return fmt.Errorf("modelstore: write artifact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("modelstore: sync artifact: %w", err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		tmp = nil
		return fmt.Errorf("modelstore: close artifact: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		tmp = nil
		return fmt.Errorf("modelstore: install artifact: %w", err)
	}
	tmp = nil
	return nil
}

// Load rebuilds the model stored under the fingerprint, verifying the
// artifact end to end against the supplied data-flow model: it reads the file
// and Decodes it, so the returned model shares nothing with the file. A
// missing artifact returns ErrNotFound; a corrupt one returns a decode error
// (callers treat both as a cache miss and regenerate).
func (s *Store) Load(fingerprint string, model *dataflow.Model) (*core.PrivacyLTS, error) {
	path, err := s.Path(fingerprint)
	if err != nil {
		return nil, err
	}
	// Touch the artifact so Prune's recency order reflects use, not just
	// installation. Best-effort: a read-only registry still loads fine.
	_ = os.Chtimes(path, time.Time{}, time.Now())
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w %.12s…", ErrNotFound, fingerprint)
		}
		return nil, fmt.Errorf("modelstore: read artifact: %w", err)
	}
	return Decode(data, model)
}

// Prune evicts artifacts beyond the keep most recently used, oldest first
// (Load touches an artifact's mtime, so recency tracks use). It returns the
// number of artifacts removed. Pruning is safe against concurrent Loads: a
// loaded model holds no reference to its file, a read in flight at the unlink
// completes — POSIX keeps the data alive until the descriptor closes — and a
// Load racing the unlink sees ErrNotFound, which callers already treat as a
// cache miss. Temp files and foreign files in the registry directory are
// never touched.
func (s *Store) Prune(keep int) (int, error) {
	if keep < 0 {
		return 0, fmt.Errorf("modelstore: negative keep %d", keep)
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("modelstore: read registry: %w", err)
	}
	type artifact struct {
		path  string
		mtime time.Time
	}
	var artifacts []artifact
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, artifactExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			// Already removed by a concurrent pruner or installer.
			continue
		}
		artifacts = append(artifacts, artifact{path: filepath.Join(s.dir, name), mtime: info.ModTime()})
	}
	if len(artifacts) <= keep {
		return 0, nil
	}
	sort.Slice(artifacts, func(i, j int) bool { return artifacts[i].mtime.Before(artifacts[j].mtime) })
	removed := 0
	for _, a := range artifacts[:len(artifacts)-keep] {
		if err := os.Remove(a.path); err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			return removed, fmt.Errorf("modelstore: prune %s: %w", filepath.Base(a.path), err)
		}
		removed++
	}
	return removed, nil
}
