//go:build race

package pactalgo

func init() { raceEnabled = true }
