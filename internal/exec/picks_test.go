package exec

import (
	"fmt"
	"testing"

	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// pickJoin builds one join kind over outer and the dimension table at
// full width. The cross join's right side is filtered to three rows to
// keep the product small.
func pickJoin(t *testing.T, kind string, outer Operator, dim *storage.Table, par int) joinOpForTest {
	t.Helper()
	switch kind {
	case "hash":
		j, err := NewHashJoin(outer, NewScan(dim, "d"),
			[]sqlparse.Expr{colRef("f", "k")}, []sqlparse.Expr{colRef("d", "k")})
		if err != nil {
			t.Fatal(err)
		}
		j.Parallelism, j.MorselSize = par, 32
		return j
	case "index":
		j, err := NewIndexJoin(outer, dim, "d", colRef("f", "k"), "k")
		if err != nil {
			t.Fatal(err)
		}
		return j
	case "cross":
		f, err := NewFilter(NewScan(dim, "d"), expr(t, "d.k < 3"))
		if err != nil {
			t.Fatal(err)
		}
		return NewCrossJoin(outer, f)
	}
	t.Fatalf("unknown join kind %q", kind)
	return nil
}

type joinOpForTest interface {
	Operator
	SetOutput(Picks) error
}

// projectPicks is the reference the picked join must equal: a Project
// naming the picked columns of the full-width join.
func projectPicks(t *testing.T, full Operator, p Picks) Operator {
	t.Helper()
	leftWidth := len(full.Schema()) - 2 // the dimension side is (k, name)
	var cols []ProjectionCol
	add := func(pos int) {
		c := full.Schema()[pos]
		cols = append(cols, ProjectionCol{Expr: colRef(c.Qualifier, c.Name), Col: c})
	}
	for _, c := range p.Left {
		add(c)
	}
	for _, c := range p.Right {
		add(leftWidth + c)
	}
	proj, err := NewProject(full, cols)
	if err != nil {
		t.Fatal(err)
	}
	return proj
}

// TestJoinPicksMatchProjection checks, for HashJoin, IndexJoin and
// CrossJoin, that a join emitting only its picked columns returns exactly
// Project(picks) over the same join at full width — serially, at
// parallelism 2 (split probe clones must carry the picks) and over a
// 2-shard outer scan.
func TestJoinPicksMatchProjection(t *testing.T) {
	fact, dim := parTables(t, 3000)
	if err := dim.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	pickSets := []Picks{
		{Left: []int{0, 2}},                  // consumed keys and the whole right side dropped
		{Left: []int{3, 0}, Right: []int{1}}, // reordered left, right payload only
		{Right: []int{1, 0}},                 // right side only
	}
	type config struct{ par, shards int }
	configs := []config{{1, 1}, {2, 1}, {1, 2}}
	for _, kind := range []string{"hash", "index", "cross"} {
		for pi, pk := range pickSets {
			want := mustCollect(t, projectPicks(t, pickJoin(t, kind, NewScan(fact, "f"), dim, 1), pk))
			if len(want) == 0 {
				t.Fatalf("%s picks %d: empty reference", kind, pi)
			}
			for _, cfg := range configs {
				label := fmt.Sprintf("%s picks=%d par=%d shards=%d", kind, pi, cfg.par, cfg.shards)
				sc := NewScan(fact, "f")
				if cfg.shards > 1 {
					sc.Sharded = storage.NewShardedTable(fact, cfg.shards)
				}
				j := pickJoin(t, kind, sc, dim, cfg.par)
				if err := j.SetOutput(pk); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got, wantW := len(j.Schema()), len(pk.Left)+len(pk.Right); got != wantW {
					t.Fatalf("%s: schema width %d, want %d", label, got, wantW)
				}
				var root Operator = j
				if cfg.par > 1 || cfg.shards > 1 {
					g := NewGather(j, cfg.par)
					g.Shards, g.MorselSize = cfg.shards, 64
					root = g
				}
				got := collectBatches(t, root, 256)
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
				}
				for i := range want {
					if !value.RowsIdentical(want[i], got[i]) {
						t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestJoinSetOutputRejectsBadPicks: picks must name at least one column
// and stay within the inputs.
func TestJoinSetOutputRejectsBadPicks(t *testing.T) {
	fact, dim := parTables(t, 10)
	j := pickJoin(t, "hash", NewScan(fact, "f"), dim, 1)
	for _, pk := range []Picks{{}, {Left: []int{4}}, {Right: []int{-1}}} {
		if err := j.SetOutput(pk); err == nil {
			t.Errorf("SetOutput(%v) accepted", pk)
		}
	}
	if len(j.Schema()) != 6 {
		t.Errorf("rejected picks changed the schema to %d columns", len(j.Schema()))
	}
}
