//go:build race

package gasalgo

func init() { raceEnabled = true }
