package main

import "testing"

func TestOracle(t *testing.T) {
	o, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	if bad := o.check(map[string]string{"fig2": o.renders["fig2"]}); len(bad) != 0 {
		t.Errorf("the stored fig2 render fails its own digest: %v", bad)
	}
	if bad := o.check(map[string]string{"fig2": o.renders["fig2"] + " ", "nosuch": ""}); len(bad) != 2 {
		t.Errorf("check flagged %v, want fig2 and nosuch", bad)
	}
}
