package coopmrm

import (
	"testing"
)

// E19 shape: the full class × fault grid is present, every cell saw at
// least one manoeuvre, and the risk columns are populated.
func TestE19Shape(t *testing.T) {
	tab := RunE19(quick())
	if len(tab.Rows) != len(e19Classes)*len(e19Faults) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(e19Classes)*len(e19Faults))
	}
	i := 0
	for _, class := range e19Classes {
		for _, fm := range e19Faults {
			row := tab.Rows[i]
			if row[0] != class.label || row[1] != fm.label {
				t.Errorf("row %d = %v/%v, want %v/%v", i, row[0], row[1], class.label, fm.label)
			}
			if row[2] == "" || row[2] == "0" {
				t.Errorf("row %d (%s/%s) recorded no manoeuvres", i, row[0], row[1])
			}
			if row[3] == "" || row[4] == "" {
				t.Errorf("row %d (%s/%s) has empty risk cells: %v", i, row[0], row[1], row)
			}
			i++
		}
	}
}
