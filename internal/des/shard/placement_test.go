package shard

import (
	"reflect"
	"testing"
)

func TestPlaceBlock(t *testing.T) {
	if got := PlaceBlock(8, 4); !reflect.DeepEqual(got, []int{0, 0, 1, 1, 2, 2, 3, 3}) {
		t.Errorf("PlaceBlock(8,4) = %v", got)
	}
	// Non-divisible: contiguous, every shard non-empty, unit order kept.
	got := PlaceBlock(5, 3)
	if !reflect.DeepEqual(got, []int{0, 0, 1, 1, 2}) {
		t.Errorf("PlaceBlock(5,3) = %v", got)
	}
	// The rack model's 4 enclosures on 2 shards: halves, in order.
	if got := PlaceBlock(4, 2); !reflect.DeepEqual(got, []int{0, 0, 1, 1}) {
		t.Errorf("PlaceBlock(4,2) = %v", got)
	}
	if got := PlaceBlock(0, 2); len(got) != 0 {
		t.Errorf("PlaceBlock(0,2) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("PlaceBlock with zero shards did not panic")
		}
	}()
	PlaceBlock(4, 0)
}
