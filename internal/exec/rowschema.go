// Package exec implements the physical query operators: scans, filters,
// hash joins, index nested-loop joins, projection, hash aggregation,
// sorting, DISTINCT and LIMIT — all pull-based batch iterators —
// together with a compiler from sqlparse expressions to evaluators over
// operator rows.
package exec

import (
	"fmt"
	"strings"

	"conquer/internal/value"
)

// ColInfo describes one column of an operator's output.
type ColInfo struct {
	Qualifier string // table alias that produced the column ("" for derived)
	Name      string
	Type      value.Kind
}

// Matches reports whether a (possibly empty) qualifier and a name refer
// to c, case-insensitively; an empty qualifier matches any table.
func (c ColInfo) Matches(qualifier, name string) bool {
	return c.Name == strings.ToLower(name) && (qualifier == "" || c.Qualifier == strings.ToLower(qualifier))
}

// RowSchema is the ordered column layout of an operator's rows.
type RowSchema []ColInfo

// Resolve returns the position of the column matching the (possibly empty)
// qualifier and name. Unqualified lookups that match more than one column
// are ambiguous and rejected.
func (rs RowSchema) Resolve(qualifier, name string) (int, error) {
	found := -1
	for i, c := range rs {
		if !c.Matches(qualifier, name) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("exec: ambiguous column reference %q", refString(qualifier, name))
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("exec: unknown column %q", refString(qualifier, name))
	}
	return found, nil
}

func refString(q, n string) string {
	if q == "" {
		return strings.ToLower(n)
	}
	return strings.ToLower(q + "." + n)
}

// Concat appends the columns of other after rs.
func (rs RowSchema) Concat(other RowSchema) RowSchema {
	out := make(RowSchema, 0, len(rs)+len(other))
	out = append(out, rs...)
	out = append(out, other...)
	return out
}

// Names returns the bare column names in order.
func (rs RowSchema) Names() []string {
	out := make([]string, len(rs))
	for i, c := range rs {
		out[i] = c.Name
	}
	return out
}

// Operator is a pull-based physical operator that produces rows a batch
// at a time. Usage:
//
//	if err := op.Open(); err != nil { ... }
//	defer op.Close()
//	b := NewBatch(DefaultBatchSize)
//	for {
//		if err := op.NextBatch(b); err != nil { ... }
//		if b.Len() == 0 { break } // exhausted
//		for i := 0; i < b.Len(); i++ { use(b.Row(i)) }
//	}
//
// Rows handed out may be retained by the caller; operators always hand
// out rows they will not mutate afterwards. The Batch itself is the
// caller's and is refilled by the next call.
type Operator interface {
	Schema() RowSchema
	Open() error
	// NextBatch resets b and refills it with the next run of rows; an
	// empty batch means the operator is exhausted.
	NextBatch(b *Batch) error
	Close() error
	// Describe returns a one-line description for EXPLAIN output.
	Describe() string
}

// Collect drains op ungoverned into a slice of rows, handling
// Open/Close.
func Collect(op Operator) ([][]value.Value, error) {
	rows, _, err := CollectBatchesGoverned(op, nil, DefaultBatchSize)
	return rows, err
}

// Explain renders the operator tree, one operator per line, children
// indented under parents.
func Explain(op Operator) string {
	var b strings.Builder
	explain(&b, op, 0)
	return b.String()
}

func explain(b *strings.Builder, op Operator, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(describe(op))
	b.WriteByte('\n')
	for _, c := range children(op) {
		explain(b, c, depth+1)
	}
}

// describe is op's EXPLAIN label: joins append their output width, which
// column liveness narrows below the concatenation of their inputs.
func describe(op Operator) string {
	switch op.(type) {
	case *HashJoin, *IndexJoin, *CrossJoin:
		return fmt.Sprintf("%s cols=%d", op.Describe(), len(op.Schema()))
	}
	return op.Describe()
}

func children(op Operator) []Operator {
	switch op := op.(type) {
	case *Gather:
		return []Operator{op.Child}
	case *Filter:
		return []Operator{op.Child}
	case *Project:
		return []Operator{op.Child}
	case *HashJoin:
		if op.Right == nil { // probe shard: the shared build owns the right input
			return []Operator{op.Left}
		}
		return []Operator{op.Left, op.Right}
	case *IndexJoin:
		return []Operator{op.Outer}
	case *CrossJoin:
		return []Operator{op.Left, op.Right}
	case *HashAggregate:
		return []Operator{op.Child}
	case *Sort:
		return []Operator{op.Child}
	case *TopN:
		return []Operator{op.Child}
	case *Distinct:
		return []Operator{op.Child}
	case *Limit:
		return []Operator{op.Child}
	default:
		return nil
	}
}
