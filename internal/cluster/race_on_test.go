//go:build race

package cluster

// raceEnabled reports that this binary was built with -race; stress tests
// size themselves down to keep the race soak's running time.
const raceEnabled = true
