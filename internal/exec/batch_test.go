package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"conquer/internal/qerr"
	"conquer/internal/schema"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// nullHeavyTable builds a fact table where two of every three qty
// values are NULL, so batch filters exercise the NULL-rejection path on
// most rows.
func nullHeavyTable(t testing.TB, n int) *storage.Table {
	t.Helper()
	s := schema.MustRelation("facts",
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "qty", Type: value.KindInt},
	)
	tb := storage.NewTable(s)
	for i := 0; i < n; i++ {
		qty := value.Null()
		if i%3 == 0 {
			qty = value.Int(int64(i % 11))
		}
		tb.MustInsert(value.Int(int64(i)), qty)
	}
	return tb
}

func collectBatches(t testing.TB, op Operator, size int) [][]value.Value {
	t.Helper()
	gov := NewGovernor(context.Background(), Limits{})
	Attach(op, gov)
	SetBatchSize(op, size)
	rows, _, err := CollectBatchesGoverned(op, gov, size)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestBatchShrinkToEmptyKeepsSelection(t *testing.T) {
	b := NewBatch(8)
	for i := 0; i < 5; i++ {
		b.Append([]value.Value{value.Int(int64(i))})
	}
	if err := b.Shrink(func([]value.Value) (bool, error) { return false, nil }); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("Len after shrink-to-empty = %d", b.Len())
	}
	// An empty selection must stay distinguishable from "no selection":
	// nil sel means all rows selected, which would resurrect the 5 rows.
	if b.sel == nil {
		t.Fatal("shrink-to-empty left sel nil (= all rows selected)")
	}
	// Shrinking an already-empty selection composes without touching rows.
	if err := b.Shrink(func([]value.Value) (bool, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 || len(b.rows) != 5 {
		t.Fatalf("second shrink: Len=%d rows=%d", b.Len(), len(b.rows))
	}
	b.Reset()
	if b.Len() != 0 || b.sel != nil {
		t.Fatal("Reset should drop the selection vector")
	}
}

func TestBatchTruncate(t *testing.T) {
	fill := func() *Batch {
		b := NewBatch(8)
		for i := 0; i < 6; i++ {
			b.AppendOrd([]value.Value{value.Int(int64(i))}, rowOrd{base: int64(i)})
		}
		return b
	}
	// Without a selection vector Truncate cuts the physical rows.
	b := fill()
	b.Truncate(2)
	if b.Len() != 2 || b.Row(1)[0].AsInt() != 1 || b.Ord(1).base != 1 {
		t.Fatalf("plain truncate: len=%d row1=%v", b.Len(), b.Row(1))
	}
	b.Truncate(5) // larger than Len is a no-op
	if b.Len() != 2 {
		t.Fatalf("growing truncate changed Len to %d", b.Len())
	}
	// With a selection vector Truncate keeps the first n *selected* rows.
	b = fill()
	if err := b.Shrink(func(row []value.Value) (bool, error) {
		return row[0].AsInt()%2 == 1, nil // keeps 1, 3, 5
	}); err != nil {
		t.Fatal(err)
	}
	b.Truncate(2)
	if b.Len() != 2 || b.Row(0)[0].AsInt() != 1 || b.Row(1)[0].AsInt() != 3 {
		t.Fatalf("selected truncate: len=%d rows=%v,%v", b.Len(), b.Row(0), b.Row(1))
	}
	if b.Ord(1).base != 3 {
		t.Fatalf("selected truncate lost ordinals: %v", b.Ord(1))
	}
}

// TestFilterBatchNULLHeavy proves the batch filter (Shrink over
// selection vectors) rejects NULL predicate inputs and keeps exactly the
// rows nullHeavyTable's rule makes qualify, across batch sizes that
// divide the input unevenly.
func TestFilterBatchNULLHeavy(t *testing.T) {
	const n = 1000
	tb := nullHeavyTable(t, n)
	// qty is i%11 on every third row and NULL elsewhere, so qty < 5 keeps
	// exactly the rows with i%3 == 0 and i%11 < 5.
	var want [][]value.Value
	for i := 0; i < n; i++ {
		if i%3 == 0 && i%11 < 5 {
			want = append(want, []value.Value{value.Int(int64(i)), value.Int(int64(i % 11))})
		}
	}
	for _, size := range []int{1, 7, 64, 1024} {
		f, err := NewFilter(NewScan(tb, "f"), expr(t, "qty < 5"))
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, want, collectBatches(t, f, size))
	}
}

// TestFilterBatchRunsDry proves a filter that rejects every row reports
// exhaustion (Filter.NextBatch keeps pulling past all-filtered child
// batches instead of returning an empty non-final batch), and that a
// single surviving row deep in the input still comes through.
func TestFilterBatchRunsDry(t *testing.T) {
	tb := nullHeavyTable(t, 1000)
	none, err := NewFilter(NewScan(tb, "f"), expr(t, "qty < 0"))
	if err != nil {
		t.Fatal(err)
	}
	if rows := collectBatches(t, none, 64); len(rows) != 0 {
		t.Fatalf("filter-to-empty returned %d rows", len(rows))
	}
	// id = 999 is the only survivor and sits 15 full batches past the
	// last non-empty one at size 64.
	one, err := NewFilter(NewScan(tb, "f"), expr(t, "id > 998"))
	if err != nil {
		t.Fatal(err)
	}
	rows := collectBatches(t, one, 64)
	if len(rows) != 1 || rows[0][0].AsInt() != 999 {
		t.Fatalf("late survivor: %v", rows)
	}
}

// TestCrossJoinBatchPreservesProbabilities proves CrossJoin's batch path
// joins the Figure 2 orders and customers into exactly the six rows of
// the paper's example, carrying both probability columns through intact,
// whether a batch holds one row, splits the product unevenly or holds it
// whole.
func TestCrossJoinBatchPreservesProbabilities(t *testing.T) {
	s, f := value.Str, value.Float
	ord := func(id, orderid, cidfk string, qty int64, prob float64) []value.Value {
		return []value.Value{s(id), s(orderid), s(cidfk), value.Int(qty), f(prob)}
	}
	cust := func(id, custid, name string, balance, prob float64) []value.Value {
		return []value.Value{s(id), s(custid), s(name), f(balance), f(prob)}
	}
	join := func(o, c []value.Value) []value.Value { return append(append([]value.Value{}, o...), c...) }
	o1, o12, o13 := ord("o1", "11", "c1", 3, 1), ord("o2", "12", "c1", 2, 0.5), ord("o2", "13", "c2", 5, 0.5)
	m1, m2 := cust("c1", "m1", "John", 20000, 0.7), cust("c1", "m2", "John", 30000, 0.3)
	m3, m4 := cust("c2", "m3", "Mary", 27000, 0.2), cust("c2", "m4", "Marion", 5000, 0.8)
	// Figure 2: each of the three orders matches its customer's two
	// alternative tuples.
	want := [][]value.Value{
		join(o1, m1), join(o1, m2),
		join(o12, m1), join(o12, m2),
		join(o13, m3), join(o13, m4),
	}
	for _, size := range []int{1, 4, 1024} {
		orders, customers := testTables(t)
		cj := NewCrossJoin(NewScan(orders, "o"), NewScan(customers, "c"))
		filter, err := NewFilter(cj, expr(t, "o.cidfk = c.id"))
		if err != nil {
			t.Fatal(err)
		}
		got := collectBatches(t, filter, size)
		requireSameRows(t, want, got)
		for i, row := range got {
			if !value.RowsIdentical(row[4:5], want[i][4:5]) || !value.RowsIdentical(row[9:], want[i][9:]) {
				t.Fatalf("size %d row %d: probabilities (%v, %v), want (%v, %v)", size, i, row[4], row[9], want[i][4], want[i][9])
			}
		}
	}
}

// TestBatchCancellation proves cancellation observed at a batch boundary
// surfaces as qerr.ErrCanceled and drains every worker goroutine.
func TestBatchCancellation(t *testing.T) {
	fact, dim := parTables(t, 5000)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the first PollBatch observes cancellation
	g := NewGather(buildJoin(t, fact, dim, 4, 0), 4)
	g.MorselSize = 64
	gov := NewGovernor(ctx, Limits{})
	Attach(g, gov)
	SetBatchSize(g, 64)
	_, _, err := CollectBatchesGoverned(g, gov, 64)
	if !errors.Is(err, qerr.ErrCanceled) {
		t.Fatalf("want qerr.ErrCanceled, got %v", err)
	}
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i >= 100 {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
