//go:build race

package experiments

// raceDetector reports a -race build, whose runtime allocates bytes of
// its own beside the program's.
const raceDetector = true
