package cpufeat_test

import (
	"testing"

	"lvmajority/internal/cpufeat"
)

// TestLevels checks that Levels lists every level from Widest down to
// Portable, one each, the widest first.
func TestLevels(t *testing.T) {
	ls := cpufeat.Levels()
	if len(ls) != int(cpufeat.Widest())+1 {
		t.Fatalf("Levels() = %v with Widest() = %v", ls, cpufeat.Widest())
	}
	for i, l := range ls {
		if want := cpufeat.Widest() - cpufeat.Level(i); l != want {
			t.Fatalf("Levels() = %v: entry %d is %v, want %v", ls, i, l, want)
		}
	}
}
