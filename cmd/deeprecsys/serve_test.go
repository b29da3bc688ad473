package main

import "testing"

func TestParseAutoscale(t *testing.T) {
	if _, _, on, err := parseAutoscale(""); on || err != nil {
		t.Errorf(`"" = on %v, %v; want off`, on, err)
	}
	for spec, want := range map[string][2]int{"1:3": {1, 3}, "2:2": {2, 2}, " 2 : 5 ": {2, 5}} {
		lo, hi, on, err := parseAutoscale(spec)
		if err != nil || !on || lo != want[0] || hi != want[1] {
			t.Errorf("%q = %d:%d on %v, %v; want %v", spec, lo, hi, on, err, want)
		}
	}
	for _, spec := range []string{"3", "0:3", "3:2", "a:3", "1:b", "1:2:3", "1:2,3", ":"} {
		if _, _, _, err := parseAutoscale(spec); err == nil {
			t.Errorf("%q accepted", spec)
		}
	}
}
