package live

import (
	"reflect"
	"testing"
)

// TestLedgerAddIsClosed walks Ledger by reflection: every uint64 field must
// be summed by Add, the EmbStore bool ORed, and no other kind of field may
// exist — so a new counter is one declaration plus one line in Add, and
// forgetting the line (or slipping a gauge or ratio into the ledger) fails
// here rather than silently dropping counts at every merge.
func TestLedgerAddIsClosed(t *testing.T) {
	var a, b Ledger
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	typ := av.Type()
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); {
		case f.Type.Kind() == reflect.Uint64:
			av.Field(i).SetUint(uint64(i + 1))
			bv.Field(i).SetUint(uint64(1000 * (i + 1)))
		case f.Name == "EmbStore" && f.Type.Kind() == reflect.Bool:
		default:
			t.Errorf("Ledger.%s is a %s: the ledger holds uint64 counters (and the EmbStore flag) only", f.Name, f.Type)
		}
	}
	sum := reflect.ValueOf(a.Add(b))
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Uint64 {
			continue
		}
		if got, want := sum.Field(i).Uint(), uint64(1001*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d (field missing from Ledger.Add?)", typ.Field(i).Name, got, want)
		}
	}
	if a.Add(b).EmbStore || !a.Add(Ledger{EmbStore: true}).EmbStore || !(Ledger{EmbStore: true}).Add(b).EmbStore {
		t.Error("Add: EmbStore must be the OR of both sides")
	}
}

// TestLedgerDerived pins the identity and the two ratios derived from the
// ledger's own sums, zero denominators included.
func TestLedgerDerived(t *testing.T) {
	var zero Ledger
	if !zero.Conserved() || zero.GPUWorkShare() != 0 || zero.EmbHitRate() != 0 {
		t.Errorf("zero ledger: conserved %v, work share %v, hit rate %v", zero.Conserved(), zero.GPUWorkShare(), zero.EmbHitRate())
	}
	l := Ledger{
		Submitted: 21, Completed: 1, Cancelled: 2, Shed: 3, ShedDeadline: 4, Failed: 5, Abandoned: 6,
		Evicted:   2, // a subset of Shed, not a disposition of its own
		WorkItems: 400, GPUItems: 100, EmbHits: 30, EmbMisses: 10,
	}
	if !l.Conserved() {
		t.Errorf("%+v should be conserved", l)
	}
	l.Submitted++
	if l.Conserved() {
		t.Errorf("%+v should not be conserved", l)
	}
	if l.GPUWorkShare() != 0.25 || l.EmbHitRate() != 0.75 {
		t.Errorf("work share %v, hit rate %v; want 0.25 and 0.75", l.GPUWorkShare(), l.EmbHitRate())
	}
}
