package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"conquer/internal/value"
)

// digest is an order-insensitive checksum of a result: the row count, a
// wrapping sum of per-row hashes over the exact cells, and for every
// float column two sums — the plain sum and a sum weighted by the row's
// exact-cell hash, which ties each float to its row. Float sums are
// compared within value.ProbEpsilon scaled by the column's largest
// magnitude (at least 1), so re-associated float arithmetic still
// matches while a moved or changed value does not.
type digest struct {
	Rows     int
	KeySum   uint64
	FloatSum []float64
	Weighted []float64
	Max      []float64 // max(1, |x|) per float column: the tolerance base
}

// floatColumns reports which result columns hold floats: a column is a
// float column when any of its non-NULL reference values is a float.
func floatColumns(ncols int, rows [][]value.Value) []bool {
	out := make([]bool, ncols)
	for _, r := range rows {
		for i, v := range r {
			if v.Kind() == value.KindFloat {
				out[i] = true
			}
		}
	}
	return out
}

// FNV-1a, inlined so that hashing a cell allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// digester accumulates a digest row by row. An exact cell is hashed as a
// tag byte plus its canonical text, which is the same for an engine value
// and for its JSON encoding; the float cells of a row are collected in
// column order, a NULL among them as a NULL tag plus a zero.
type digester struct {
	d      digest
	fc     []bool
	h      uint64
	floats []float64
	buf    []byte
	bad    bool // a row's float cells did not line up with the float columns
}

func newDigester(floatCols []bool) *digester {
	n := 0
	for _, f := range floatCols {
		if f {
			n++
		}
	}
	return &digester{fc: floatCols, h: fnvOffset, d: digest{
		FloatSum: make([]float64, n),
		Weighted: make([]float64, n),
		Max:      make([]float64, n),
	}}
}

func (g *digester) text(tag byte, s []byte) {
	g.h = (g.h ^ uint64(tag)) * fnvPrime
	for _, c := range s {
		g.h = (g.h ^ uint64(c)) * fnvPrime
	}
	g.h *= fnvPrime // cell separator: a zero byte
}

func (g *digester) null(col int) {
	g.text('0', nil)
	if g.fc[col] {
		g.floats = append(g.floats, 0)
	}
}

// value adds column col of the current row from an engine value.
func (g *digester) value(col int, v value.Value) {
	switch {
	case v.Kind() == value.KindNull:
		g.null(col)
	case g.fc[col] && v.Kind() == value.KindInt:
		g.floats = append(g.floats, float64(v.AsInt()))
	case g.fc[col] && v.Kind() == value.KindFloat:
		g.floats = append(g.floats, v.AsFloat())
	case v.Kind() == value.KindInt:
		g.buf = strconv.AppendInt(g.buf[:0], v.AsInt(), 10)
		g.text('n', g.buf)
	case v.Kind() == value.KindString:
		g.buf = append(g.buf[:0], v.AsString()...)
		g.text('s', g.buf)
	case v.Kind() == value.KindBool:
		g.buf = strconv.AppendBool(g.buf[:0], v.AsBool())
		g.text('b', g.buf)
	default:
		g.buf = append(g.buf[:0], v.String()...)
		g.text('?', g.buf)
	}
}

// json adds column col of the current row from a value decoded (with
// UseNumber) from a server response. The column kind, not the JSON
// spelling, decides how a number is compared: Go encodes the float 1
// as "1".
func (g *digester) json(col int, x any) error {
	switch v := x.(type) {
	case nil:
		g.null(col)
	case json.Number:
		if !g.fc[col] {
			g.buf = append(g.buf[:0], v...)
			g.text('n', g.buf)
			return nil
		}
		f, err := v.Float64()
		if err != nil {
			return err
		}
		g.floats = append(g.floats, f)
	case string:
		g.buf = append(g.buf[:0], v...)
		g.text('s', g.buf)
	case bool:
		g.buf = strconv.AppendBool(g.buf[:0], v)
		g.text('b', g.buf)
	default:
		return fmt.Errorf("unexpected JSON value %T", x)
	}
	return nil
}

// endRow folds the current row into the digest.
func (g *digester) endRow() {
	if len(g.floats) != len(g.d.FloatSum) {
		g.bad = true
	}
	w := float64(g.h>>11) / (1 << 53) // in [0, 1)
	g.d.Rows++
	g.d.KeySum += g.h
	for j, x := range g.floats[:min(len(g.floats), len(g.d.FloatSum))] {
		g.d.FloatSum[j] += x
		g.d.Weighted[j] += x * w
		g.d.Max[j] = math.Max(g.d.Max[j], math.Max(1, math.Abs(x)))
	}
	g.h, g.floats = fnvOffset, g.floats[:0]
}

// digestValues checksums engine rows. A result whose float cells do not
// line up with floatCols gets a digest that matches nothing.
func digestValues(floatCols []bool, rows [][]value.Value) digest {
	g := newDigester(floatCols)
	for _, r := range rows {
		for i, v := range r[:min(len(r), len(floatCols))] {
			g.value(i, v)
		}
		g.endRow()
		g.bad = g.bad || len(r) != len(floatCols)
	}
	if g.bad {
		g.d.Rows = -1
	}
	return g.d
}

// digestJSON checksums decoded response rows.
func digestJSON(floatCols []bool, rows [][]any) (digest, error) {
	g := newDigester(floatCols)
	for _, r := range rows {
		if len(r) != len(floatCols) {
			return digest{}, fmt.Errorf("row has %d values, want %d", len(r), len(floatCols))
		}
		for i, x := range r {
			if err := g.json(i, x); err != nil {
				return digest{}, err
			}
		}
		g.endRow()
	}
	if g.bad {
		return digest{}, fmt.Errorf("float cells do not line up with the reference's float columns")
	}
	return g.d, nil
}

// match reports whether got agrees with the reference want, explaining
// the first difference.
func (want digest) match(got digest) error {
	if got.Rows != want.Rows {
		return fmt.Errorf("%d rows, want %d", got.Rows, want.Rows)
	}
	if got.KeySum != want.KeySum || len(got.FloatSum) != len(want.FloatSum) {
		return fmt.Errorf("exact cells differ")
	}
	for j := range want.FloatSum {
		tol := value.ProbEpsilon * want.Max[j]
		if !value.FloatEq(got.FloatSum[j], want.FloatSum[j], tol) ||
			!value.FloatEq(got.Weighted[j], want.Weighted[j], tol) {
			return fmt.Errorf("float column %d differs beyond epsilon", j)
		}
	}
	return nil
}
