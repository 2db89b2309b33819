//go:build race

package gas

func init() { raceEnabled = true }
