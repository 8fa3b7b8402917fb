//go:build race

package profile

// raceEnabled reports a race-detector build, in which sync.Pool drops a
// random quarter of the buffers put back, so a pooled path's allocation
// gate uses its looser race limit there.
const raceEnabled = true
