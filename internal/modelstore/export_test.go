package modelstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Fingerprint verifies an artifact's framing and checksum and returns the
// embedded model fingerprint, without rebuilding the model.
func Fingerprint(data []byte) (string, error) {
	_, mt, err := parseSections(data)
	return mt.fingerprint, err
}

// Reseal recomputes the checksum of an artifact-shaped buffer in place and
// returns it. It exists for tests and fuzz corpora that deliberately mutate
// payload bytes and need the decoder's structural validation — not the
// checksum — to be what rejects the result.
func Reseal(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, corruptf("%d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	sum := checksumOf(data)
	copy(data[checksumOff:], sum[:])
	return data, nil
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
