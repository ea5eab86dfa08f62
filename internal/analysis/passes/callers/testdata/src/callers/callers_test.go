package callers

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 2 {
		t.Fail()
	}
}
