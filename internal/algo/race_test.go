//go:build race

package algo

func init() { raceEnabled = true }
