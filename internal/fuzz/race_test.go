//go:build race

package fuzz

// raceDetector reports a -race build, whose sync.Pool drops a random share
// of what is put back, so a pooled state is rebuilt at random.
const raceDetector = true
