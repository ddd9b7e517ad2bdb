package fixture

import "testing"

func TestSeeded(t *testing.T) {
	Unused()
	c := &Counter{}
	c.Inc()
	if Recurse(3) != 0 || c.Peek() != 1 || Knob != 3 || (Orphan{}).String() != "" || Low != 0 || Accessor() != 0 {
		t.Fatal("fixture")
	}
}
