package analysis

import (
	"reflect"
	"testing"

	"ironsafe/internal/simtime"
)

// TestMeterchargeOwnsEveryCounter holds metercharge's owner table to the
// meter: every counter has exactly one row, so a new counter cannot be
// charged from anywhere for want of an owner.
func TestMeterchargeOwnsEveryCounter(t *testing.T) {
	rows := map[string]int{}
	for _, r := range rules {
		for _, c := range r.counters {
			rows[c]++
		}
	}
	mt := reflect.TypeOf((*simtime.Meter)(nil)).Elem()
	for i := range mt.NumField() {
		name := mt.Field(i).Name
		if rows[name] != 1 {
			t.Errorf("Meter.%s is owned by %d metercharge rows, want 1", name, rows[name])
		}
		delete(rows, name)
	}
	for name := range rows {
		t.Errorf("metercharge row names %s, which Meter does not have", name)
	}
}
