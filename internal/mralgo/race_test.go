//go:build race

package mralgo

func init() { raceEnabled = true }
