//go:build race

package charm

// raceEnabled reports a race-detector build. Its sync.Pool drops a share
// of Puts on purpose, so pooled-message allocation counts rise there.
const raceEnabled = true
