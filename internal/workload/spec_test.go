package workload

import (
	"strings"
	"testing"
	"time"
)

// TestSpecShapes pins the tokenizer's two shapes: what Call and Pairs split,
// that every token is trimmed, and that each failure names the rejected
// token and the valid forms.
func TestSpecShapes(t *testing.T) {
	if name, args := Call("name"); name != "name" || args != nil {
		t.Errorf(`Call("name") = %q, %q; want no args`, name, args)
	}
	if name, args := Call(" flash : 2 , 1s,"); name != "flash" || strings.Join(args, "|") != "2|1s|" {
		t.Errorf("Call trims and keeps empty args: got %q, %q", name, args)
	}

	forms := []Form[int]{
		NewForm("plain", func([]string) (int, error) { return 1, nil }),
		NewForm("pair[:<a>,<b>]", func(a []string) (int, error) {
			var x, y int
			err := Args(a, Int(&x, 0, 9), Int(&y, 0))
			return x + y, Need(err, x <= y, "a <= b")
		}, 0, 2),
	}
	for spec, want := range map[string]int{"plain": 1, "pair": 0, "pair:1,2": 3, " pair : 4 , 5 ": 9} {
		if got, err := ParseCall("t", "thing", spec, forms); err != nil || got != want {
			t.Errorf("ParseCall(%q) = %d, %v; want %d", spec, got, err, want)
		}
	}
	for spec, wants := range map[string][]string{
		"other":     {`"other"`, "expected one of: plain, pair[:<a>,<b>]"},
		"plain:1":   {"takes no parameter", `"plain:1"`},
		"pair:1":    {`"pair:1"`, "want pair[:<a>,<b>]"},
		"pair:1,x":  {`"x" must be an integer >= 0`},
		"pair:10,1": {`"10" must be an integer in [0, 9]`},
		"pair:3,2":  {"need a <= b"},
	} {
		_, err := ParseCall("t", "thing", spec, forms)
		for _, want := range wants {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("ParseCall(%q) error %v does not mention %q", spec, err, want)
			}
		}
	}

	var (
		d time.Duration
		p float64
	)
	keys := []Key{NewKey("every=<dur>", PosDuration(&d)), NewKey("p=<p>", Prob(&p))}
	if err := Pairs("t", "cfg", Fields(" every = 5ms , p:0.5 ", ","), "=:", keys...); err != nil || d != 5*time.Millisecond || p != 0.5 {
		t.Errorf("Pairs read every=%v p=%v, %v", d, p, err)
	}
	for spec, want := range map[string]string{
		"every":    `bad cfg field "every" (want key=value)`,
		"often=1s": `unknown cfg key "often" (expected one of: every=<dur>, p=<p>)`,
		"every=0s": `cfg every: "0s" must be a positive duration`,
		"p=1.5":    `cfg p: "1.5" must be a probability in [0, 1]`,
		"p=NaN":    `"NaN" must be a probability`,
	} {
		if err := Pairs("t", "cfg", Fields(spec, ","), "=:", keys...); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Pairs(%q) error %v does not mention %q", spec, err, want)
		}
	}

	for spec, off := range map[string]bool{"": true, "none": true, " none ": true, "off": false, "none=1": false} {
		if Off(spec) != off {
			t.Errorf("Off(%q) = %v", spec, !off)
		}
	}
}

// TestSpecArgumentsTrimUniformly: "lognormal:4.0, 0.9" always parsed;
// "zipf:1.2, 2" did not until every grammar shared one tokenizer. Non-finite
// numbers, which compared false against every range check, are refused.
func TestSpecArgumentsTrimUniformly(t *testing.T) {
	if d, err := ParseAccess("zipf:1.2, 2"); err != nil || d.Name() != "zipf:1.2,2" {
		t.Errorf(`ParseAccess("zipf:1.2, 2") = %v, %v`, d, err)
	}
	if d, err := ParseDist("lognormal:4.0, 0.9"); err != nil || d.Name() != "lognormal(4.00,0.90)" {
		t.Errorf(`ParseDist("lognormal:4.0, 0.9") = %v, %v`, d, err)
	}
	for _, spec := range []string{"zipf:NaN", "zipf:+Inf", "zipf:1.2,NaN"} {
		if d, err := ParseAccess(spec); err == nil {
			t.Errorf("ParseAccess(%q) accepted as %v", spec, d.Name())
		}
	}
}
