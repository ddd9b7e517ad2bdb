// Package fixture seeds testonly violations and each sanctioned shape.
// Its test file refers to every seeded declaration, so each is reached
// from tests only; cmd/app is the product caller of the rest.
package fixture

import "strings"

// Unused is an exported func nothing outside tests calls.
func Unused() {} // want testonly:"func Unused"

// Recurse calls only itself; its own body is not a reference.
func Recurse(n int) int { // want testonly:"func Recurse"
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Knob is an exported var only tests read.
var Knob = 3 // want testonly:"var Knob"

// Counter is used by cmd/app; Inc is called there, Peek only by tests.
type Counter struct{ n int }

// Inc increments.
func (c *Counter) Inc() { c.n++ }

// Peek reads the count.
func (c *Counter) Peek() int { return c.n } // want testonly:"method Counter.Peek"

// Orphan's only non-test mentions are its own methods, which do not
// count; its String method satisfies fmt.Stringer and is not a finding.
type Orphan struct{ v int } // want testonly:"type Orphan"

func (o Orphan) String() string { return strings.Repeat("o", o.v) }

// Tick is reached from cmd/app and calls Helper: a same-package caller
// counts.
func Tick(c *Counter) int {
	c.Inc()
	return Helper()
}

// Helper is called only by Tick, in this package.
func Helper() int { return 1 }

// ByLen is sorted by cmd/app through sort.Interface; its methods are
// reached only by interface calls.
type ByLen []string

func (b ByLen) Len() int           { return len(b) }
func (b ByLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b ByLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Fault satisfies error; Error is reached through the interface.
type Fault struct{}

func (Fault) Error() string { return "fault" }

// ErrFault is returned by cmd/app.
var ErrFault error = Fault{}

// Level is an iota block: tests use Low, nothing uses High, and
// constants are never findings.
type Level int

const (
	Low Level = iota
	Mid
	High
)

// Default returns the level cmd/app runs at.
func Default() Level { return Mid }

// Accessor is kept for tests by a reasoned directive.
//
//whvet:allow testonly a cross-package test accessor
func Accessor() int { return 0 }
