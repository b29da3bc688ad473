package workload

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The spec tokenizer: every textual grammar in the repository — workload,
// arrivals, access, admission, routing policy, embedding store, chaos,
// net-chaos, degrade, tenants, autoscale bounds — is built from the two
// shapes implemented here, so each parser keeps only its table of forms or
// keys and its semantic checks:
//
//	name[:arg,arg…]    one of several named forms   (ParseCall over Forms)
//	key=value,…        a set of optional settings   (Pairs over Keys)
//
// Fields is the one place a spec is cut into tokens (every token is
// trimmed), Off the one reading of ""/"none", and the Readers the one
// implementation of each typed value.

// UnknownSpec builds the error every spec-grammar parser returns for an
// unrecognized keyword: it names what was rejected and enumerates every
// valid spec, so a typo on a CLI flag teaches the grammar instead of just
// refusing. prefix is the package reporting the error ("workload",
// "fleet", "live", ...), what the grammar's domain ("access distribution",
// "routing policy", ...), got the rejected input, and valid the complete
// spec list in documentation order.
func UnknownSpec(prefix, what, got string, valid ...string) error {
	return fmt.Errorf("%s: unknown %s %q (expected one of: %s)", prefix, what, got, strings.Join(valid, ", "))
}

// Fields splits spec on sep and trims every field.
func Fields(spec, sep string) []string {
	fields := strings.Split(spec, sep)
	for i, f := range fields {
		fields[i] = strings.TrimSpace(f)
	}
	return fields
}

// Off reports whether spec is one of the two spellings of "disabled".
func Off(spec string) bool {
	s := strings.TrimSpace(spec)
	return s == "" || s == "none"
}

// Call splits the name[:arg,arg…] shape. args is nil when spec carries no
// ':', so "name" (no arguments) and "name:" (one empty argument) differ.
func Call(spec string) (name string, args []string) {
	name, rest, ok := strings.Cut(spec, ":")
	if ok {
		args = Fields(rest, ",")
	}
	return strings.TrimSpace(name), args
}

// usageName is the keyword a usage string such as "size-aware[:<n>]",
// "queue:<depth>" or "every=<dur>" introduces.
func usageName(usage string) string {
	return usage[:strings.IndexAny(usage+":", "[:=")]
}

// Form is one named alternative of a name[:arg,arg…] grammar.
type Form[T any] struct {
	usage string
	arity []int
	build func(args []string) (T, error)
}

// NewForm declares a form by its usage string (documentation spelling,
// e.g. "lognormal[:<mu>,<sigma>]"), the argument counts it accepts (none
// listed = parameters are refused), and the builder run on the arguments.
func NewForm[T any](usage string, build func(args []string) (T, error), arity ...int) Form[T] {
	return Form[T]{usage: usage, arity: arity, build: build}
}

// Usages lists the forms' usage strings in declaration order — the list
// UnknownSpec enumerates, and the one flag help should print.
func Usages[T any](forms []Form[T]) []string {
	out := make([]string, len(forms))
	for i, f := range forms {
		out[i] = f.usage
	}
	return out
}

// ParseCall parses spec against forms: it finds the form spec names,
// checks the argument count, and runs the form's builder.
func ParseCall[T any](prefix, what, spec string, forms []Form[T]) (T, error) {
	var zero T
	name, args := Call(spec)
	i := slices.IndexFunc(forms, func(f Form[T]) bool { return usageName(f.usage) == name })
	if i < 0 {
		return zero, UnknownSpec(prefix, what, spec, Usages(forms)...)
	}
	f := forms[i]
	switch {
	case len(args) > 0 && len(f.arity) == 0:
		return zero, fmt.Errorf("%s: %s %s takes no parameter (got %q)", prefix, what, name, spec)
	case len(f.arity) > 0 && !slices.Contains(f.arity, len(args)):
		return zero, fmt.Errorf("%s: bad %s %q (want %s)", prefix, what, spec, f.usage)
	}
	v, err := f.build(args)
	if err != nil {
		return zero, fmt.Errorf("%s: bad %s %q (want %s): %w", prefix, what, spec, f.usage, err)
	}
	return v, nil
}

// Reader parses one value into the destination it was built around.
type Reader func(val string) error

// Args reads args[i] with readers[i]; the caller's arity list guarantees
// there are at least as many readers as arguments.
func Args(args []string, readers ...Reader) error {
	for i, a := range args {
		if err := readers[i](a); err != nil {
			return err
		}
	}
	return nil
}

// Need folds a semantic check into a parse: it passes err through, and
// otherwise fails with "need <want>" unless ok holds.
func Need(err error, ok bool, want string) error {
	if err == nil && !ok {
		err = errors.New("need " + want)
	}
	return err
}

// Key is one key of a key=value grammar.
type Key struct {
	usage string
	read  Reader
}

// NewKey declares a key by its usage string ("every=<dur>") and the reader
// its value goes through.
func NewKey(usage string, read Reader) Key { return Key{usage: usage, read: read} }

// Pairs parses the key=value,… shape: each field is cut at the first of
// the seps characters, the key looked up in keys, the value handed to its
// reader. An unknown key enumerates the valid ones.
func Pairs(prefix, what string, fields []string, seps string, keys ...Key) error {
	for _, field := range fields {
		cut := strings.IndexAny(field, seps)
		if cut < 0 {
			return fmt.Errorf("%s: bad %s field %q (want key%cvalue)", prefix, what, field, seps[0])
		}
		name, val := strings.TrimSpace(field[:cut]), strings.TrimSpace(field[cut+1:])
		i := slices.IndexFunc(keys, func(k Key) bool { return usageName(k.usage) == name })
		if i < 0 {
			usages := make([]string, len(keys))
			for j, k := range keys {
				usages[j] = k.usage
			}
			return UnknownSpec(prefix, what+" key", name, usages...)
		}
		if err := keys[i].read(val); err != nil {
			return fmt.Errorf("%s: %s %s: %w", prefix, what, name, err)
		}
	}
	return nil
}

// String reads the value verbatim.
func String(dst *string) Reader {
	return func(val string) error { *dst = val; return nil }
}

// Float reads a finite number.
func Float(dst *float64) Reader {
	return func(val string) error {
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%q must be a finite number", val)
		}
		*dst = v
		return nil
	}
}

// Prob reads a probability in [0, 1].
func Prob(dst *float64) Reader {
	return func(val string) error {
		if err := Float(dst)(val); err != nil || *dst < 0 || *dst > 1 {
			return fmt.Errorf("%q must be a probability in [0, 1]", val)
		}
		return nil
	}
}

// Duration reads a Go duration of either sign ("30s", "1m").
func Duration(dst *time.Duration) Reader {
	return func(val string) error {
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("%q must be a duration", val)
		}
		*dst = d
		return nil
	}
}

// PosDuration reads a positive Go duration.
func PosDuration(dst *time.Duration) Reader {
	return func(val string) error {
		if err := Duration(dst)(val); err != nil || *dst <= 0 {
			return fmt.Errorf("%q must be a positive duration", val)
		}
		return nil
	}
}

// Int reads an integer, bounded by bounds when given: one value is the
// minimum, two are [min, max].
func Int[T ~int | ~int64](dst *T, bounds ...T) Reader {
	want := "an integer"
	switch len(bounds) {
	case 1:
		want = fmt.Sprintf("an integer >= %d", bounds[0])
	case 2:
		want = fmt.Sprintf("an integer in [%d, %d]", bounds[0], bounds[1])
	}
	return func(val string) error {
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil || int64(T(v)) != v || len(bounds) > 0 && T(v) < bounds[0] || len(bounds) > 1 && T(v) > bounds[1] {
			return fmt.Errorf("%q must be %s", val, want)
		}
		*dst = T(v)
		return nil
	}
}
