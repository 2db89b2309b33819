//go:build race

package evolve_test

func init() { raceEnabled = true }
