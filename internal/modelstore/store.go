package modelstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

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
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w %.12s…", ErrNotFound, fingerprint)
		}
		return nil, fmt.Errorf("modelstore: read artifact: %w", err)
	}
	return Decode(data, model)
}
