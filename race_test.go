//go:build race

package xsec

func init() { raceEnabled = true }
