//go:build !race

package bufpool

// RaceDetector reports whether the binary was built with -race. Under the
// race detector sync.Pool drops a quarter of what is Put, at random, so the
// pools miss and tests that count allocations on pooled paths skip.
const RaceDetector = false
