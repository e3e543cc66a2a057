//go:build race

package vfs

func init() { poisonReleased = true }
