//go:build race

package privascope_test

func init() { raceDetector = true }
