// Package plan translates parsed SELECT statements into physical operator
// trees: it resolves names against the database, pushes single-table
// predicates below joins, picks a greedy join order over the equi-join
// edges, and assembles projection, aggregation, sorting, DISTINCT and
// LIMIT on top.
package plan

import (
	"fmt"
	"strings"

	"conquer/internal/exec"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// Options tunes physical planning.
type Options struct {
	// PreferIndexJoin makes the planner use an index nested-loop join when
	// the inner relation has a stored index on the join column; otherwise a
	// hash join is built on the fly.
	PreferIndexJoin bool
	// Parallelism is the worker count for morsel-driven parallel
	// execution: hash-join builds and aggregations run partitioned in
	// parallel, and splittable plan roots are wrapped in an exec.Gather
	// exchange. Values <= 1 plan strictly serial execution.
	Parallelism int
	// Shards is the cluster-shard count for partitioned scans. When > 1
	// and Sharder is set, every scan leaf carries a shard view: dirty
	// tables hash-partition rows by cluster id (semantically free under
	// Dfn 2 — a cluster never splits across shards), clean tables
	// block-partition, and execution claims morsels per shard with
	// skew-aware rebalancing. Values <= 1 plan unsharded scans.
	Shards int
	// Sharder maps a base table to its shard view. The engine installs a
	// cached storage.ShardedTable lookup here so repeated queries reuse
	// partitions until the table version moves. nil disables sharding
	// regardless of Shards.
	Sharder func(*storage.Table) exec.ShardView
	// BatchSize is the rows per batch of the planned tree's internal
	// drains (materializing operators, join builds, Gather workers):
	// values <= 0 resolve to exec.DefaultBatchSize (see
	// exec.ResolveBatchSize); tests set small sizes to force batch
	// boundaries.
	BatchSize int
}

// Plan builds an executable operator tree for stmt over db.
func Plan(db *storage.DB, stmt *sqlparse.SelectStmt, opts Options) (exec.Operator, error) {
	p := &planner{db: db, stmt: stmt, opts: opts}
	return p.plan()
}

// ExplainAnalyze plans stmt, executes it with per-operator
// instrumentation, and returns the annotated plan: each line carries the
// observed rows in/out, batches, buffered reservations and wall time
// (see exec.ExplainAnalyze). The query runs to completion ungoverned;
// callers needing budgets should instrument through the engine instead.
func ExplainAnalyze(db *storage.DB, stmt *sqlparse.SelectStmt, opts Options) (string, error) {
	op, err := Plan(db, stmt, opts)
	if err != nil {
		return "", err
	}
	exec.Instrument(op)
	if _, err := exec.Collect(op); err != nil {
		return "", err
	}
	return exec.ExplainAnalyze(op), nil
}

type planner struct {
	db   *storage.DB
	stmt *sqlparse.SelectStmt
	opts Options
}

// sharded reports whether scans should carry shard views.
func (p *planner) sharded() bool {
	return p.opts.Shards > 1 && p.opts.Sharder != nil
}

// newScan builds a scan leaf, attaching the shard view when sharding is
// on.
func (p *planner) newScan(tb *storage.Table, alias string) *exec.Scan {
	sc := exec.NewScan(tb, alias)
	if p.sharded() {
		sc.Sharded = p.opts.Sharder(tb)
	}
	return sc
}

// tableSource tracks one FROM entry through join planning.
type tableSource struct {
	ref     sqlparse.TableRef
	table   *storage.Table
	filters []sqlparse.Expr // single-table conjuncts
}

// joinEdge is one equi-join conjunct between two FROM entries.
type joinEdge struct {
	leftAlias, rightAlias string
	leftKey, rightKey     sqlparse.Expr
}

func (p *planner) plan() (exec.Operator, error) {
	if len(p.stmt.From) == 0 {
		return nil, fmt.Errorf("plan: query has no FROM clause")
	}
	sources, err := p.resolveFrom()
	if err != nil {
		return nil, err
	}
	edges, residual, err := p.classifyWhere(sources)
	if err != nil {
		return nil, err
	}
	root, err := p.buildJoinTree(sources, edges, p.liveAboveJoins(residual))
	if err != nil {
		return nil, err
	}
	if len(residual) > 0 {
		root, err = exec.NewFilter(root, sqlparse.AndAll(residual))
		if err != nil {
			return nil, err
		}
	}
	root, outNames, err := p.buildOutput(root)
	if err != nil {
		return nil, err
	}
	// Parallelize a splittable pipeline root (scan→filter→project plans;
	// aggregate plans instead parallelize inside HashAggregate) with a
	// Gather exchange below DISTINCT/ORDER BY/LIMIT. Sharded plans need
	// the exchange even at parallelism 1: per-shard claim accounting
	// requires morsel execution.
	if (p.opts.Parallelism > 1 || p.sharded()) && exec.CanSplit(root) {
		g := exec.NewGather(root, max(p.opts.Parallelism, 1))
		g.Shards = p.opts.Shards
		root = g
	}
	if p.stmt.Distinct {
		root = exec.NewDistinct(root)
	}
	root, limitFused, err := p.buildSort(root, outNames)
	if err != nil {
		return nil, err
	}
	if p.stmt.Limit >= 0 && !limitFused {
		root = exec.NewLimit(root, p.stmt.Limit)
	}
	exec.SetBatchSize(root, p.opts.BatchSize)
	return root, nil
}

func (p *planner) resolveFrom() ([]*tableSource, error) {
	seen := make(map[string]bool)
	var out []*tableSource
	for _, ref := range p.stmt.From {
		alias := strings.ToLower(ref.Alias)
		if seen[alias] {
			return nil, fmt.Errorf("plan: duplicate table alias %q", alias)
		}
		seen[alias] = true
		tb, ok := p.db.Table(ref.Table)
		if !ok {
			return nil, fmt.Errorf("plan: unknown table %q", ref.Table)
		}
		out = append(out, &tableSource{ref: ref, table: tb})
	}
	return out, nil
}

// classifyWhere splits the WHERE conjuncts into per-table filters (attached
// to sources), equi-join edges, and residual predicates evaluated after all
// joins.
func (p *planner) classifyWhere(sources []*tableSource) ([]joinEdge, []sqlparse.Expr, error) {
	byAlias := make(map[string]*tableSource, len(sources))
	for _, s := range sources {
		byAlias[strings.ToLower(s.ref.Alias)] = s
	}
	var edges []joinEdge
	var residual []sqlparse.Expr
	for _, conj := range sqlparse.Conjuncts(p.stmt.Where) {
		aliases, err := referencedAliases(conj, sources)
		if err != nil {
			return nil, nil, err
		}
		switch len(aliases) {
		case 0:
			// Constant predicate: evaluate once per row after joins.
			residual = append(residual, conj)
		case 1:
			byAlias[aliases[0]].filters = append(byAlias[aliases[0]].filters, conj)
		case 2:
			if e, ok := asEquiJoin(conj, sources); ok {
				edges = append(edges, e)
			} else {
				residual = append(residual, conj)
			}
		default:
			residual = append(residual, conj)
		}
	}
	return edges, residual, nil
}

// referencedAliases returns the distinct FROM aliases a conjunct touches,
// resolving unqualified columns to the unique table that has the column.
func referencedAliases(e sqlparse.Expr, sources []*tableSource) ([]string, error) {
	set := make(map[string]bool)
	var resolveErr error
	sqlparse.WalkExpr(e, func(x sqlparse.Expr) bool {
		cr, ok := x.(*sqlparse.ColumnRef)
		if !ok {
			return true
		}
		alias, err := resolveAlias(cr, sources)
		if err != nil && resolveErr == nil {
			resolveErr = err
		}
		if alias != "" {
			set[alias] = true
		}
		return true
	})
	if resolveErr != nil {
		return nil, resolveErr
	}
	out := make([]string, 0, len(set))
	for _, s := range sources {
		a := strings.ToLower(s.ref.Alias)
		if set[a] {
			out = append(out, a)
		}
	}
	return out, nil
}

// resolveAlias finds the FROM alias owning a column reference.
func resolveAlias(cr *sqlparse.ColumnRef, sources []*tableSource) (string, error) {
	if cr.Qualifier != "" {
		q := strings.ToLower(cr.Qualifier)
		for _, s := range sources {
			if strings.ToLower(s.ref.Alias) == q {
				if !s.table.Schema.HasColumn(cr.Name) {
					return "", fmt.Errorf("plan: table %s has no column %q", s.ref.Alias, cr.Name)
				}
				return q, nil
			}
		}
		return "", fmt.Errorf("plan: unknown table alias %q", cr.Qualifier)
	}
	found := ""
	for _, s := range sources {
		if s.table.Schema.HasColumn(cr.Name) {
			if found != "" {
				return "", fmt.Errorf("plan: ambiguous column %q", cr.Name)
			}
			found = strings.ToLower(s.ref.Alias)
		}
	}
	if found == "" {
		return "", fmt.Errorf("plan: unknown column %q", cr.Name)
	}
	return found, nil
}

// asEquiJoin recognizes `col = col` conjuncts joining two distinct tables.
func asEquiJoin(e sqlparse.Expr, sources []*tableSource) (joinEdge, bool) {
	be, ok := e.(*sqlparse.BinaryExpr)
	if !ok || be.Op != sqlparse.OpEq {
		return joinEdge{}, false
	}
	lc, lok := be.L.(*sqlparse.ColumnRef)
	rc, rok := be.R.(*sqlparse.ColumnRef)
	if !lok || !rok {
		return joinEdge{}, false
	}
	la, err1 := resolveAlias(lc, sources)
	ra, err2 := resolveAlias(rc, sources)
	if err1 != nil || err2 != nil || la == ra {
		return joinEdge{}, false
	}
	return joinEdge{leftAlias: la, rightAlias: ra, leftKey: be.L, rightKey: be.R}, true
}

// liveCols is a set of column references still read above some point of
// the join tree (DESIGN.md §16). A reference keeps every column it could
// resolve to — the matching is exec.ColInfo.Matches, the rule
// RowSchema.Resolve applies — so narrowing a join never turns an
// ambiguous or unknown reference into a resolvable one, and never
// changes which column a resolvable one names.
type liveCols struct {
	all  bool // SELECT *: every column is read
	refs []*sqlparse.ColumnRef
}

// with returns l plus the column references inside exprs; l is not
// modified.
func (l liveCols) with(exprs ...sqlparse.Expr) liveCols {
	out := liveCols{all: l.all, refs: l.refs[:len(l.refs):len(l.refs)]}
	for _, e := range exprs {
		sqlparse.WalkExpr(e, func(x sqlparse.Expr) bool {
			if cr, ok := x.(*sqlparse.ColumnRef); ok {
				out.refs = append(out.refs, cr)
			}
			return true
		})
	}
	return out
}

func (l liveCols) keeps(c exec.ColInfo) bool {
	if l.all {
		return true
	}
	for _, r := range l.refs {
		if c.Matches(r.Qualifier, r.Name) {
			return true
		}
	}
	return false
}

// liveAboveJoins collects the columns read above the whole join tree:
// SELECT, GROUP BY and HAVING (aggregate arguments included) and the
// residual multi-table predicates. ORDER BY is absent on purpose: its
// keys resolve against the projected output (see buildSort), never
// against join rows, so a select alias such as `ORDER BY revenue` keeps
// nothing alive.
func (p *planner) liveAboveJoins(residual []sqlparse.Expr) liveCols {
	var l liveCols
	for _, it := range p.stmt.Select {
		l.all = l.all || it.Star
		l = l.with(it.Expr)
	}
	return l.with(p.stmt.GroupBy...).with(residual...).with(p.stmt.Having)
}

// joinOp is a join whose output columns the planner can narrow.
type joinOp interface {
	exec.Operator
	SetOutput(exec.Picks) error
}

// narrow restricts a freshly built join over a leftWidth-column left
// input to the columns live above it. A join always keeps at least one
// column (exec rejects zero-width rows), so a query reading no join
// column, e.g. COUNT(*), carries the first left column.
func narrow(j joinOp, leftWidth int, live liveCols) error {
	var pk exec.Picks
	for i, c := range j.Schema() {
		switch {
		case !live.keeps(c):
		case i < leftWidth:
			pk.Left = append(pk.Left, i)
		default:
			pk.Right = append(pk.Right, i-leftWidth)
		}
	}
	if len(pk.Left)+len(pk.Right) == 0 {
		pk.Left = []int{0}
	}
	return j.SetOutput(pk)
}

// buildJoinTree greedily composes the sources along equi-join edges,
// starting from the source with the most filters (cheapest after
// filtering, as a crude cardinality proxy) and preferring connected joins;
// disconnected components fall back to cross joins. Each step consumes
// every pending edge between the joined set and the next table, so a join
// cycle closes as a multi-key join and no edge is left over. Every join
// emits only the columns live above it: those in live plus the keys of
// the edges not yet consumed.
func (p *planner) buildJoinTree(sources []*tableSource, edges []joinEdge, live liveCols) (exec.Operator, error) {
	scan := func(s *tableSource) (exec.Operator, error) {
		var op exec.Operator = p.newScan(s.table, s.ref.Alias)
		if len(s.filters) > 0 {
			f, err := exec.NewFilter(op, sqlparse.AndAll(s.filters))
			if err != nil {
				return nil, err
			}
			op = f
		}
		return op, nil
	}

	remaining := make(map[string]*tableSource, len(sources))
	for _, s := range sources {
		remaining[strings.ToLower(s.ref.Alias)] = s
	}

	// Pick the start: most filters wins; ties go to FROM order.
	start := sources[0]
	for _, s := range sources[1:] {
		if len(s.filters) > len(start.filters) {
			start = s
		}
	}
	root, err := scan(start)
	if err != nil {
		return nil, err
	}
	joined := map[string]bool{strings.ToLower(start.ref.Alias): true}
	delete(remaining, strings.ToLower(start.ref.Alias))
	pending := append([]joinEdge(nil), edges...)

	for len(remaining) > 0 {
		// Gather every pending edge connecting the joined set to one new
		// table; all its edges become the (multi-key) join condition.
		next := ""
		for _, e := range pending {
			switch {
			case joined[e.leftAlias] && !joined[e.rightAlias]:
				next = e.rightAlias
			case joined[e.rightAlias] && !joined[e.leftAlias]:
				next = e.leftAlias
			}
			if next != "" {
				break
			}
		}
		if next == "" {
			// Disconnected: cross join the next remaining table in FROM
			// order.
			for _, s := range sources {
				a := strings.ToLower(s.ref.Alias)
				if !joined[a] {
					next = a
					break
				}
			}
			side, err := scan(remaining[next])
			if err != nil {
				return nil, err
			}
			cj := exec.NewCrossJoin(root, side)
			if err := narrow(cj, len(root.Schema()), liveAbove(live, pending)); err != nil {
				return nil, err
			}
			root = cj
			joined[next] = true
			delete(remaining, next)
			continue
		}

		src := remaining[next]
		var outerKeys, innerKeys []sqlparse.Expr
		rest := pending[:0]
		for _, e := range pending {
			switch {
			case joined[e.leftAlias] && e.rightAlias == next:
				outerKeys = append(outerKeys, e.leftKey)
				innerKeys = append(innerKeys, e.rightKey)
			case joined[e.rightAlias] && e.leftAlias == next:
				outerKeys = append(outerKeys, e.rightKey)
				innerKeys = append(innerKeys, e.leftKey)
			default:
				rest = append(rest, e)
			}
		}
		pending = rest

		j, err := p.join(root, src, outerKeys, innerKeys)
		if err != nil {
			return nil, err
		}
		if err := narrow(j, len(root.Schema()), liveAbove(live, pending)); err != nil {
			return nil, err
		}
		root = j
		joined[next] = true
		delete(remaining, next)
	}
	return root, nil
}

// liveAbove adds the keys of the still-pending edges to live.
func liveAbove(live liveCols, pending []joinEdge) liveCols {
	keys := make([]sqlparse.Expr, 0, 2*len(pending))
	for _, e := range pending {
		keys = append(keys, e.leftKey, e.rightKey)
	}
	return live.with(keys...)
}

// join attaches src to the outer plan using the key lists; it prefers an
// index join when enabled, the inner side has no pushed filter, a single
// plain-column key, and a stored index.
func (p *planner) join(outer exec.Operator, src *tableSource, outerKeys, innerKeys []sqlparse.Expr) (joinOp, error) {
	if p.opts.PreferIndexJoin && len(src.filters) == 0 && len(innerKeys) == 1 {
		if cr, ok := innerKeys[0].(*sqlparse.ColumnRef); ok {
			if _, hasIdx := src.table.Index(cr.Name); hasIdx {
				return exec.NewIndexJoin(outer, src.table, src.ref.Alias, outerKeys[0], cr.Name)
			}
		}
	}
	inner := p.newScan(src.table, src.ref.Alias)
	var innerOp exec.Operator = inner
	if len(src.filters) > 0 {
		f, err := exec.NewFilter(innerOp, sqlparse.AndAll(src.filters))
		if err != nil {
			return nil, err
		}
		innerOp = f
	}
	j, err := exec.NewHashJoin(outer, innerOp, outerKeys, innerKeys)
	if err != nil {
		return nil, err
	}
	j.Parallelism = p.opts.Parallelism
	return j, nil
}

// buildOutput constructs projection or aggregation over the join result and
// returns the operator plus output column names (for ORDER BY alias
// resolution).
func (p *planner) buildOutput(root exec.Operator) (exec.Operator, []string, error) {
	items, err := p.expandStars(root.Schema())
	if err != nil {
		return nil, nil, err
	}
	hasAgg := false
	for _, it := range items {
		if sqlparse.HasAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}
	if !hasAgg && len(p.stmt.GroupBy) == 0 {
		if p.stmt.Having != nil {
			return nil, nil, fmt.Errorf("plan: HAVING requires GROUP BY")
		}
		cols := make([]exec.ProjectionCol, len(items))
		names := make([]string, len(items))
		for i, it := range items {
			ci := outputCol(it, root.Schema(), i)
			cols[i] = exec.ProjectionCol{Expr: it.Expr, Col: ci}
			names[i] = ci.Name
		}
		proj, err := exec.NewProject(root, cols)
		if err != nil {
			return nil, nil, err
		}
		return proj, names, nil
	}
	return p.buildAggregate(root, items)
}

// expandStars replaces SELECT * with explicit column references.
func (p *planner) expandStars(rs exec.RowSchema) ([]sqlparse.SelectItem, error) {
	var out []sqlparse.SelectItem
	for _, it := range p.stmt.Select {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, c := range rs {
			out = append(out, sqlparse.SelectItem{
				Expr: &sqlparse.ColumnRef{Qualifier: c.Qualifier, Name: c.Name},
			})
		}
	}
	return out, nil
}

// outputCol derives the output column descriptor for a select item.
func outputCol(it sqlparse.SelectItem, rs exec.RowSchema, pos int) exec.ColInfo {
	name := it.Alias
	if name == "" {
		if cr, ok := it.Expr.(*sqlparse.ColumnRef); ok {
			name = cr.Name
		} else {
			name = fmt.Sprintf("col%d", pos+1)
		}
	}
	return exec.ColInfo{Name: strings.ToLower(name), Type: inferType(it.Expr, rs)}
}

// inferType approximates the output kind of an expression; used only for
// result metadata, never for execution decisions.
func inferType(e sqlparse.Expr, rs exec.RowSchema) value.Kind {
	switch e := e.(type) {
	case *sqlparse.ColumnRef:
		if i, err := rs.Resolve(e.Qualifier, e.Name); err == nil {
			return rs[i].Type
		}
	case *sqlparse.Literal:
		return e.Val.Kind()
	case *sqlparse.BinaryExpr:
		if e.Op.IsComparison() || e.Op == sqlparse.OpAnd || e.Op == sqlparse.OpOr {
			return value.KindBool
		}
		lt, rt := inferType(e.L, rs), inferType(e.R, rs)
		if lt == value.KindFloat || rt == value.KindFloat {
			return value.KindFloat
		}
		return value.KindInt
	case *sqlparse.NegExpr:
		return inferType(e.X, rs)
	case *sqlparse.NotExpr, *sqlparse.InExpr, *sqlparse.BetweenExpr, *sqlparse.LikeExpr, *sqlparse.IsNullExpr:
		return value.KindBool
	case *sqlparse.FuncCall:
		switch e.Name {
		case "COUNT":
			return value.KindInt
		case "AVG":
			return value.KindFloat
		case "SUM", "MIN", "MAX":
			if len(e.Args) == 1 {
				return inferType(e.Args[0], rs)
			}
		}
	}
	return value.KindNull
}

// buildAggregate plans GROUP BY + aggregates. Every select item must be
// either an aggregate call or expression-equal to a GROUP BY key, matching
// standard SQL validation.
func (p *planner) buildAggregate(root exec.Operator, items []sqlparse.SelectItem) (exec.Operator, []string, error) {
	groupTexts := make([]string, len(p.stmt.GroupBy))
	for i, g := range p.stmt.GroupBy {
		groupTexts[i] = g.SQL()
	}
	groupCols := make([]exec.ColInfo, len(p.stmt.GroupBy))
	// Default group output names come from the expressions; select items
	// override them with aliases below.
	for i, g := range p.stmt.GroupBy {
		name := fmt.Sprintf("group%d", i+1)
		if cr, ok := g.(*sqlparse.ColumnRef); ok {
			name = cr.Name
		}
		groupCols[i] = exec.ColInfo{Name: name, Type: inferType(g, root.Schema())}
	}

	type outSource struct {
		groupIdx int // >=0: group key position
		aggIdx   int // >=0: aggregate spec position
	}
	var aggs []exec.AggSpec
	outs := make([]outSource, len(items))
	names := make([]string, len(items))

	for i, it := range items {
		ci := outputCol(it, root.Schema(), i)
		names[i] = ci.Name
		if fc, ok := it.Expr.(*sqlparse.FuncCall); ok && sqlparse.IsAggregateName(fc.Name) {
			f, err := exec.ParseAggFunc(fc.Name)
			if err != nil {
				return nil, nil, err
			}
			spec := exec.AggSpec{Func: f, Col: ci}
			if fc.Star {
				if f != exec.AggCount {
					return nil, nil, fmt.Errorf("plan: %s(*) is not valid", fc.Name)
				}
			} else {
				if len(fc.Args) != 1 {
					return nil, nil, fmt.Errorf("plan: %s expects one argument", fc.Name)
				}
				spec.Arg = fc.Args[0]
			}
			outs[i] = outSource{groupIdx: -1, aggIdx: len(aggs)}
			aggs = append(aggs, spec)
			continue
		}
		if sqlparse.HasAggregate(it.Expr) {
			return nil, nil, fmt.Errorf("plan: aggregates must be top-level select items (got %s)", it.Expr.SQL())
		}
		// Must match a group-by expression.
		txt := it.Expr.SQL()
		gi := -1
		for k, gt := range groupTexts {
			if gt == txt {
				gi = k
				break
			}
		}
		if gi < 0 {
			return nil, nil, fmt.Errorf("plan: select item %s is neither aggregated nor grouped", txt)
		}
		groupCols[gi] = ci // select alias names the group output
		outs[i] = outSource{groupIdx: gi, aggIdx: -1}
	}

	// HAVING: aggregates referenced only in the predicate become hidden
	// aggregate outputs, stripped again by the final projection.
	selectAggCount := len(aggs)
	var having sqlparse.Expr
	if p.stmt.Having != nil {
		var err error
		having, err = p.rewriteHaving(p.stmt.Having, groupTexts, groupCols, &aggs, root.Schema())
		if err != nil {
			return nil, nil, err
		}
	}

	agg, err := exec.NewHashAggregate(root, p.stmt.GroupBy, groupCols, aggs)
	if err != nil {
		return nil, nil, err
	}
	agg.Parallelism = p.opts.Parallelism

	var filtered exec.Operator = agg
	if having != nil {
		f, err := exec.NewFilter(agg, having)
		if err != nil {
			return nil, nil, err
		}
		filtered = f
	}

	// Reorder aggregate output into select order when needed; hidden
	// HAVING aggregates always force the stripping projection.
	needsReorder := len(aggs) > selectAggCount
	for i, o := range outs {
		want := i
		var got int
		if o.groupIdx >= 0 {
			got = o.groupIdx
		} else {
			got = len(p.stmt.GroupBy) + o.aggIdx
		}
		if got != want {
			needsReorder = true
		}
	}
	if len(items) != len(p.stmt.GroupBy)+len(aggs) {
		needsReorder = true
	}
	if !needsReorder {
		return filtered, names, nil
	}
	cols := make([]exec.ProjectionCol, len(items))
	aggSchema := agg.Schema()
	for i, o := range outs {
		var src int
		if o.groupIdx >= 0 {
			src = o.groupIdx
		} else {
			src = len(p.stmt.GroupBy) + o.aggIdx
		}
		cols[i] = exec.ProjectionCol{
			Expr: &sqlparse.ColumnRef{Name: aggSchema[src].Name},
			Col:  exec.ColInfo{Name: names[i], Type: aggSchema[src].Type},
		}
	}
	proj, err := exec.NewProject(filtered, cols)
	if err != nil {
		return nil, nil, err
	}
	return proj, names, nil
}

// rewriteHaving translates a HAVING predicate into an expression over the
// aggregate's output schema: aggregate calls become references to
// (possibly hidden, freshly appended) aggregate outputs, and expressions
// textually equal to a GROUP BY key become references to that key's
// output column. Anything else is left for compilation against the
// aggregate schema, which rejects references to non-grouped base columns.
func (p *planner) rewriteHaving(e sqlparse.Expr, groupTexts []string, groupCols []exec.ColInfo, aggs *[]exec.AggSpec, base exec.RowSchema) (sqlparse.Expr, error) {
	// Group-key match first: a bare column that is also a group key maps
	// to the group output.
	txt := e.SQL()
	for i, gt := range groupTexts {
		if gt == txt {
			return &sqlparse.ColumnRef{Name: groupCols[i].Name}, nil
		}
	}
	switch e := e.(type) {
	case *sqlparse.FuncCall:
		if !sqlparse.IsAggregateName(e.Name) {
			return nil, fmt.Errorf("plan: unknown function %s in HAVING", e.Name)
		}
		f, err := exec.ParseAggFunc(e.Name)
		if err != nil {
			return nil, err
		}
		spec := exec.AggSpec{Func: f}
		if e.Star {
			if f != exec.AggCount {
				return nil, fmt.Errorf("plan: %s(*) is not valid", e.Name)
			}
		} else {
			if len(e.Args) != 1 {
				return nil, fmt.Errorf("plan: %s expects one argument", e.Name)
			}
			spec.Arg = e.Args[0]
		}
		// Reuse an existing spec computing the same aggregate.
		for _, existing := range *aggs {
			if existing.Func == spec.Func && sameArg(existing.Arg, spec.Arg) {
				return &sqlparse.ColumnRef{Name: existing.Col.Name}, nil
			}
		}
		spec.Col = exec.ColInfo{
			Name: fmt.Sprintf("_having%d", len(*aggs)+1),
			Type: inferType(e, base),
		}
		*aggs = append(*aggs, spec)
		return &sqlparse.ColumnRef{Name: spec.Col.Name}, nil
	case *sqlparse.BinaryExpr:
		l, err := p.rewriteHaving(e.L, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		r, err := p.rewriteHaving(e.R, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BinaryExpr{Op: e.Op, L: l, R: r}, nil
	case *sqlparse.NotExpr:
		x, err := p.rewriteHaving(e.X, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		return &sqlparse.NotExpr{X: x}, nil
	case *sqlparse.NegExpr:
		x, err := p.rewriteHaving(e.X, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		return &sqlparse.NegExpr{X: x}, nil
	case *sqlparse.InExpr:
		x, err := p.rewriteHaving(e.X, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		out := &sqlparse.InExpr{X: x, Not: e.Not}
		for _, it := range e.List {
			r, err := p.rewriteHaving(it, groupTexts, groupCols, aggs, base)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, r)
		}
		return out, nil
	case *sqlparse.BetweenExpr:
		x, err := p.rewriteHaving(e.X, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		lo, err := p.rewriteHaving(e.Lo, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		hi, err := p.rewriteHaving(e.Hi, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BetweenExpr{X: x, Lo: lo, Hi: hi, Not: e.Not}, nil
	case *sqlparse.LikeExpr:
		x, err := p.rewriteHaving(e.X, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		return &sqlparse.LikeExpr{X: x, Pattern: e.Pattern, Not: e.Not}, nil
	case *sqlparse.IsNullExpr:
		x, err := p.rewriteHaving(e.X, groupTexts, groupCols, aggs, base)
		if err != nil {
			return nil, err
		}
		return &sqlparse.IsNullExpr{X: x, Not: e.Not}, nil
	default:
		// Literals and non-grouped column references pass through; the
		// latter fail later at compile time unless they name a group
		// output.
		return sqlparse.CloneExpr(e), nil
	}
}

// sameArg compares aggregate arguments structurally via their SQL text.
func sameArg(a, b sqlparse.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.SQL() == b.SQL()
}

// buildSort resolves ORDER BY keys against the projected output: a key may
// name an output column (or select alias) directly, or repeat a select
// expression textually. Expressions over non-projected columns are not
// supported after projection, mirroring many real engines. When a
// positive LIMIT accompanies the ORDER BY, the two fuse into a bounded
// top-N heap (limitFused reports that the caller's Limit is already
// applied).
func (p *planner) buildSort(root exec.Operator, outNames []string) (op exec.Operator, limitFused bool, err error) {
	if len(p.stmt.OrderBy) == 0 {
		return root, false, nil
	}
	selectTexts := make([]string, len(p.stmt.Select))
	for i, it := range p.stmt.Select {
		if it.Expr != nil {
			selectTexts[i] = it.Expr.SQL()
		}
	}
	keys := make([]exec.SortKey, len(p.stmt.OrderBy))
	for i, o := range p.stmt.OrderBy {
		pos := -1
		if cr, ok := o.Expr.(*sqlparse.ColumnRef); ok && cr.Qualifier == "" {
			name := strings.ToLower(cr.Name)
			for k, n := range outNames {
				if n == name {
					pos = k
					break
				}
			}
		}
		if pos < 0 {
			txt := o.Expr.SQL()
			for k, st := range selectTexts {
				if st == txt && k < len(outNames) {
					pos = k
					break
				}
			}
		}
		if pos >= 0 {
			keys[i] = exec.SortKeyPos(pos, o.Desc)
		} else {
			// Last resort: compile directly against the output schema (for
			// refs that survived projection under their bare name).
			keys[i] = exec.SortKeyExpr(o.Expr, o.Desc)
		}
	}
	if p.stmt.Limit > 0 {
		topn, err := exec.NewTopN(root, keys, p.stmt.Limit)
		if err != nil {
			return nil, false, err
		}
		return topn, true, nil
	}
	srt, err := exec.NewSort(root, keys)
	if err != nil {
		return nil, false, err
	}
	return srt, false, nil
}
