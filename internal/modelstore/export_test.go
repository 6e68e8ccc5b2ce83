package modelstore

import "os"

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
