// Package support imports testing from a non-test file: a test-support
// package, whose exported API exists to be called by tests.
package support

import "testing"

// Check is test support no product code calls.
func Check(t *testing.T) { t.Helper() }
