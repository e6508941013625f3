package main

import "testing"

// TestE2RowTotalsMatchPaper pins the Table 1 reconstruction to the paper's
// row totals.
func TestE2RowTotalsMatchPaper(t *testing.T) {
	if cloud, ml, graph := table1Totals(); cloud != 8 || ml != 8 || graph != 4 {
		t.Fatalf("Table 1 totals drifted from the paper: cloud=%d ml=%d graph=%d, want 8/8/4", cloud, ml, graph)
	}
}
