//go:build race

package client_test

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation counts that rest on pooled buffers do not hold.
const raceEnabled = true
