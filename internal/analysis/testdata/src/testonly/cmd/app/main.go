// Command app is the fixture's product caller.
package main

import (
	"fmt"
	"sort"

	fixture "warehousesim/internal/analysis/testdata/src/testonly"
)

// Exported declarations of a main package are never findings.
func Exported() {}

func main() {
	c := &fixture.Counter{}
	names := fixture.ByLen{"ccc", "a", "bb"}
	sort.Sort(names)
	fmt.Println(fixture.Tick(c), names, fixture.Default(), fixture.ErrFault)
}
