// Package dead is imported by the root package but exports a function no
// one calls.
package dead

// Used is called from the root package's API.
func Used() int { return 1 }

// Dead is exported, but an internal package's exports are not API.
func Dead() {} // want "Dead is unreached"
