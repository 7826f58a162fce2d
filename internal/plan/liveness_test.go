package plan

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"conquer/internal/exec"
	"conquer/internal/rewrite"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/tpch"
)

// joinSchemas plans sql and returns each join's output columns as
// qualifier.name lists, innermost join first.
func joinSchemas(t *testing.T, db *storage.DB, stmt *sqlparse.SelectStmt, opts Options) [][]string {
	t.Helper()
	op, err := Plan(db, stmt, opts)
	if err != nil {
		t.Fatalf("plan %s: %v", stmt.SQL(), err)
	}
	var out [][]string
	var walk func(op exec.Operator)
	walk = func(op exec.Operator) {
		var next exec.Operator
		switch o := op.(type) {
		case *exec.HashJoin:
			next = o.Left
		case *exec.IndexJoin:
			next = o.Outer
		case *exec.CrossJoin:
			next = o.Left
		case *exec.Sort:
			next = o.Child
		case *exec.TopN:
			next = o.Child
		case *exec.Project:
			next = o.Child
		case *exec.HashAggregate:
			next = o.Child
		case *exec.Filter:
			next = o.Child
		case *exec.Distinct:
			next = o.Child
		case *exec.Limit:
			next = o.Child
		}
		if next != nil {
			walk(next)
		}
		switch op.(type) {
		case *exec.HashJoin, *exec.IndexJoin, *exec.CrossJoin:
			var cols []string
			for _, c := range op.Schema() {
				cols = append(cols, c.Qualifier+"."+c.Name)
			}
			out = append(out, cols)
		}
	}
	walk(op)
	return out
}

// tpchDB is an empty database over the dirty TPC-H catalog: enough to
// plan every evaluation query.
func tpchDB(t *testing.T) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	cat := tpch.Catalog()
	for _, name := range cat.Names() {
		rel, _ := cat.Relation(name)
		db.MustCreateTable(rel)
	}
	return db
}

func tpchStmt(t *testing.T, n int, clean bool) *sqlparse.SelectStmt {
	t.Helper()
	q, err := tpch.Get(n)
	if err != nil {
		t.Fatal(err)
	}
	stmt := sqlparse.MustParse(q.SQL)
	if clean {
		if stmt, err = rewrite.RewriteClean(tpch.Catalog(), stmt); err != nil {
			t.Fatal(err)
		}
	}
	return stmt
}

// Q9's five joins each carry only the columns read above them: the
// select list, the keys of joins still to come, and — rewritten — the
// prob column of every relation joined so far. Consumed join keys are
// dropped as soon as no later edge needs them.
func TestLivenessQ9JoinSchemas(t *testing.T) {
	db := tpchDB(t)
	want := map[bool][]string{
		false: {
			"l.l_id l.l_orderkey l.l_suppkey l.l_psid l.l_quantity l.l_extendedprice l.l_discount",
			"l.l_id l.l_orderkey l.l_psid l.l_quantity l.l_extendedprice l.l_discount s.s_nationkey",
			"l.l_id l.l_orderkey l.l_quantity l.l_extendedprice l.l_discount s.s_nationkey ps.ps_supplycost",
			"l.l_id l.l_quantity l.l_extendedprice l.l_discount s.s_nationkey ps.ps_supplycost o.o_orderdate",
			"l.l_id l.l_quantity l.l_extendedprice l.l_discount ps.ps_supplycost o.o_orderdate n.n_name",
		},
		true: {
			"p.prob l.l_id l.l_orderkey l.l_suppkey l.l_psid l.l_quantity l.l_extendedprice l.l_discount l.prob",
			"p.prob l.l_id l.l_orderkey l.l_psid l.l_quantity l.l_extendedprice l.l_discount l.prob s.s_nationkey s.prob",
			"p.prob l.l_id l.l_orderkey l.l_quantity l.l_extendedprice l.l_discount l.prob s.s_nationkey s.prob ps.ps_supplycost ps.prob",
			"p.prob l.l_id l.l_quantity l.l_extendedprice l.l_discount l.prob s.s_nationkey s.prob ps.ps_supplycost ps.prob o.o_orderdate o.prob",
			"p.prob l.l_id l.l_quantity l.l_extendedprice l.l_discount l.prob s.prob ps.ps_supplycost ps.prob o.o_orderdate o.prob n.n_name n.prob",
		},
	}
	for _, clean := range []bool{false, true} {
		got := joinSchemas(t, db, tpchStmt(t, 9, clean), Options{})
		if len(got) != len(want[clean]) {
			t.Fatalf("clean=%v: %d joins, want %d", clean, len(got), len(want[clean]))
		}
		for i, w := range want[clean] {
			if !reflect.DeepEqual(got[i], strings.Fields(w)) {
				t.Errorf("clean=%v join %d:\n got %v\nwant %v", clean, i+1, got[i], strings.Fields(w))
			}
		}
	}
}

// SELECT * reads every column, so no join narrows.
func TestLivenessSelectStarKeepsAllColumns(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(1)))
	got := joinSchemas(t, db, sqlparse.MustParse("select * from ta x, tb y, tc z where x.k = y.k and y.k = z.k"), Options{})
	for i, w := range []int{6, 9} {
		if len(got[i]) != w {
			t.Errorf("join %d: %d columns, want %d: %v", i+1, len(got[i]), w, got[i])
		}
	}
}

// ORDER BY keys resolve against the projected output, so ordering by a
// select alias (Q3's and Q10's `ORDER BY revenue`) narrows exactly as
// the same query without ORDER BY does.
func TestLivenessOrderByAliasKeepsPruning(t *testing.T) {
	db := tpchDB(t)
	for _, n := range []int{3, 10} {
		for _, clean := range []bool{false, true} {
			stmt := tpchStmt(t, n, clean)
			if len(stmt.OrderBy) == 0 {
				t.Fatalf("Q%d has no ORDER BY", n)
			}
			ordered := joinSchemas(t, db, stmt, Options{})
			bare := *stmt
			bare.OrderBy = nil
			if unordered := joinSchemas(t, db, &bare, Options{}); !reflect.DeepEqual(ordered, unordered) {
				t.Errorf("Q%d clean=%v: ORDER BY changed join widths:\n%v\nvs\n%v", n, clean, ordered, unordered)
			}
		}
	}
	got := joinSchemas(t, db, tpchStmt(t, 3, false), Options{})
	want := [][]string{
		{"o.o_orderkey", "o.o_orderdate", "o.o_shippriority"},
		{"o.o_orderdate", "o.o_shippriority", "l.l_id", "l.l_orderkey", "l.l_extendedprice", "l.l_discount"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Q3 joins:\n got %v\nwant %v", got, want)
	}
}

// Columns read only by HAVING aggregates or by residual multi-table
// predicates stay live through every join, and so do the keys of a join
// cycle: the greedy order closes a cycle with a multi-key join, whose
// second key must survive the join below it. Answers still match the
// brute-force reference.
func TestLivenessHavingResidualAndCycleColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randomDB(rng)

	// HAVING-only aggregate argument: y.s is read nowhere else.
	having := sqlparse.MustParse("select x.k, count(*) as n from ta x, tb y where x.k = y.k group by x.k having max(y.s) > 'a'")
	if got := joinSchemas(t, db, having, Options{}); !reflect.DeepEqual(got, [][]string{{"x.k", "y.s"}}) {
		t.Errorf("HAVING-only column: join schema %v", got)
	}

	for _, tc := range []struct {
		sql  string
		want [][]string
	}{
		{"select x.s from ta x, tb y where x.k = y.k and x.v + y.v < 12",
			[][]string{{"x.v", "x.s", "y.v"}}},
		{"select x.v from ta x, tb y, tc z where x.k = y.k and y.k = z.k and z.k = x.k",
			[][]string{{"x.k", "x.v", "y.k"}, {"x.v"}}},
	} {
		stmt := sqlparse.MustParse(tc.sql)
		if got := joinSchemas(t, db, stmt, Options{}); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: join schemas %v, want %v", tc.sql, got, tc.want)
		}
		op, err := Plan(db, stmt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		want := refEvaluate(t, db, stmt)
		sortRows(got)
		sortRows(want)
		if !rowsEqual(got, want) {
			t.Errorf("%s: %d rows vs reference %d", tc.sql, len(got), len(want))
		}
	}
}

// A disconnected join graph falls back to a CrossJoin, which narrows
// like any other join; a query reading no join column (COUNT(*)) keeps
// one column, since a join row is never zero-width.
func TestLivenessCrossJoin(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(4)))
	if got := joinSchemas(t, db, sqlparse.MustParse("select x.v, y.s from ta x, tb y where x.k = 1"), Options{}); !reflect.DeepEqual(got, [][]string{{"x.v", "y.s"}}) {
		t.Errorf("cross join schema %v", got)
	}
	stmt := sqlparse.MustParse("select count(*) as n from ta x, tb y")
	if got := joinSchemas(t, db, stmt, Options{}); !reflect.DeepEqual(got, [][]string{{"x.k"}}) {
		t.Errorf("COUNT(*) cross join schema %v", got)
	}
	op, err := Plan(db, stmt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsInt() != 6*5 {
		t.Errorf("COUNT(*) over the product = %v, want 30", rows)
	}
}

// An unqualified reference keeps every column it could name, so a
// reference ambiguous over the full join stays ambiguous over the
// narrowed one instead of silently resolving.
func TestLivenessKeepsAmbiguityErrors(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(5)))
	if _, err := Plan(db, sqlparse.MustParse("select s from ta x, tb y where x.k = y.k"), Options{}); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous select column: err = %v", err)
	}
}

// PreferIndexJoin still plans an IndexJoin, narrowed like a hash join.
func TestLivenessIndexJoin(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(6)))
	tb, _ := db.Table("tb")
	if err := tb.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	stmt := sqlparse.MustParse("select x.v, y.s from ta x, tb y where x.k = y.k")
	op, err := Plan(db, stmt, Options{PreferIndexJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if out := exec.Explain(op); !strings.Contains(out, "IndexJoin(x.k = y.k) cols=2") {
		t.Errorf("expected a narrowed IndexJoin:\n%s", out)
	}
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	want := refEvaluate(t, db, stmt)
	sortRows(got)
	sortRows(want)
	if !rowsEqual(got, want) {
		t.Errorf("index join: %d rows vs reference %d", len(got), len(want))
	}
}
