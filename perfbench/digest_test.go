package main

import (
	"encoding/json"
	"strings"
	"testing"

	"conquer/internal/value"
)

func testRows() [][]value.Value {
	return [][]value.Value{
		{value.Int(1), value.Str("a"), value.Float(1200.5), value.Float(0.25)},
		{value.Int(2), value.Str("b"), value.Float(99000), value.Float(0.75)},
		{value.Int(3), value.Null(), value.Null(), value.Float(1)},
		{value.Int(4), value.Str("d"), value.Float(123456.5), value.Float(0.5)},
	}
}

func TestDigestIgnoresRowOrder(t *testing.T) {
	rows := testRows()
	fc := floatColumns(4, rows)
	want := digestValues(fc, rows)
	rev := [][]value.Value{rows[3], rows[1], rows[0], rows[2]}
	if err := want.match(digestValues(fc, rev)); err != nil {
		t.Errorf("reordered rows: %v", err)
	}
}

func TestDigestHonoursEpsilon(t *testing.T) {
	rows := testRows()
	fc := floatColumns(4, rows)
	want := digestValues(fc, rows)
	perturb := func(row int, delta float64) digest {
		cp := make([][]value.Value, len(rows))
		for i, r := range rows {
			cp[i] = append([]value.Value(nil), r...)
		}
		cp[row][3] = value.Float(cp[row][3].AsFloat() + delta)
		return digestValues(fc, cp)
	}
	if err := want.match(perturb(0, value.ProbEpsilon/10)); err != nil {
		t.Errorf("a difference below epsilon was rejected: %v", err)
	}
	if err := want.match(perturb(0, 1e-3)); err == nil {
		t.Error("a probability off by 1e-3 was accepted")
	}
	// Two floats swapped between rows keep the plain sums but move the
	// row-weighted ones.
	sw := [][]value.Value{
		{value.Int(1), value.Str("a"), value.Float(1200.5), value.Float(0.75)},
		{value.Int(2), value.Str("b"), value.Float(99000), value.Float(0.25)},
		rows[2], rows[3],
	}
	if err := want.match(digestValues(fc, sw)); err == nil {
		t.Error("floats swapped between rows were accepted")
	}
}

func TestDigestDetectsExactCellChanges(t *testing.T) {
	rows := testRows()
	fc := floatColumns(4, rows)
	want := digestValues(fc, rows)
	cp := append([][]value.Value(nil), rows...)
	cp[1] = []value.Value{value.Int(2), value.Str("B"), value.Float(99000), value.Float(0.75)}
	if err := want.match(digestValues(fc, cp)); err == nil {
		t.Error("a changed string was accepted")
	}
	if err := want.match(digestValues(fc, rows[:3])); err == nil {
		t.Error("a missing row was accepted")
	}
	cp[1] = []value.Value{value.Int(2), value.Str("b"), value.Str("99000"), value.Float(0.75)}
	if err := want.match(digestValues(fc, cp)); err == nil {
		t.Error("a string in a float column was accepted")
	}
}

func TestDigestJSONMatchesValues(t *testing.T) {
	rows := testRows()
	fc := floatColumns(4, rows)
	want := digestValues(fc, rows)
	// Go's encoder writes the float 1 as "1"; the column kind, not the
	// JSON spelling, decides how a number is compared.
	body := `[[4,"d",123456.5,0.5],[3,null,null,1],[1,"a",1200.5,0.25],[2,"b",99000,0.75]]`
	dec := json.NewDecoder(strings.NewReader(body))
	dec.UseNumber()
	var got [][]any
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	d, err := digestJSON(fc, got)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.match(d); err != nil {
		t.Errorf("JSON rows: %v", err)
	}
}
