// Package support is test support: no loaded package imports it, so its
// functions are exempt.
package support

// Helper is called only from tests.
func Helper() int { return 1 }
