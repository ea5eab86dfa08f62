// Package lib is linted alone: its one caller is in package app, which
// the command line does not name.
package lib

// UsedByApp is called from app alone.
func UsedByApp() int { return 1 }

// Unused has no caller anywhere.
func Unused() int { return 2 }
