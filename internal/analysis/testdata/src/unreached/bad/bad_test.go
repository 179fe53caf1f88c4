package bad

import "testing"

func TestOnly(t *testing.T) {
	if testOnly() != 2 {
		t.Fatal("testOnly")
	}
}
