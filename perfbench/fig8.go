package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"conquer/internal/bench"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/plan"
	"conquer/internal/rewrite"
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/storage"
	"conquer/internal/tpch"
	"conquer/internal/value"
)

// fig8WarmupPasses are run and discarded before timing: the first pass
// runs about twice as slow as the steady state.
const fig8WarmupPasses = 2

// fig8 is the state of the Fig 8 workload: the thirteen evaluation
// queries, their reference digests, and the engine under test at its
// defaults with the cache off.
type fig8 struct {
	d       *dirty.DB
	eng     *engine.Engine
	cat     *schema.Catalog
	queries []tpch.Query
	q9      int        // index of Q9 in queries
	rng     *rand.Rand // the seed's per-pass query order

	origFC, cleanFC   [][]bool
	origRef, cleanRef []digest

	// Traced pipeline: the planner options the engine resolves by default.
	popts  plan.Options
	shards map[*storage.Table]*storage.ShardedTable
}

// fig8Pass is one pass's timings, in milliseconds.
type fig8Pass struct {
	orig, clean, cleanNoQ9 float64
	origQ, cleanQ          []float64
}

// column extracts one timing from every pass.
func column(ps []fig8Pass, get func(fig8Pass) float64) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = get(p)
	}
	return xs
}

func runFig8(r *run) error {
	// Theorem 1 self-test on a tiny instance drawn from the seed:
	// rewriting against exact candidate enumeration.
	vr, err := bench.Verify(r.seed, value.ProbEpsilon)
	if err != nil {
		return fmt.Errorf("theorem 1 self-test: %w", err)
	}
	for _, v := range vr {
		r.attempted++
		if !v.OK {
			r.fail(fmt.Errorf("theorem 1 self-test: %q off by %g", v.Query, v.MaxDiff))
		}
	}

	var genMs []float64
	f, err := timeSetup(r, func() (*fig8, error) {
		start := time.Now()
		d, err := bench.GenerateWorkload(instSF, instIF, instScale, instSeed)
		genMs = append(genMs, ms(time.Since(start)))
		if err != nil {
			return nil, err
		}
		return &fig8{d: d, eng: engine.New(d.Store), rng: rand.New(rand.NewSource(r.seed))}, nil
	}, func(*fig8) {})
	if err != nil {
		return err
	}
	r.info["rows"] = tableRows(f.d.Store)
	r.info["instance_seed"] = instSeed
	if err := f.prepare(); err != nil {
		return err
	}
	hp := &heapPeak{}
	for i := 0; i < fig8WarmupPasses; i++ {
		f.pass(r, hp)
	}
	hp.reset()
	if r.tr != nil {
		return f.traced(r, genMs)
	}

	var passes []fig8Pass
	start := time.Now()
	need := minSamples(50)
	for time.Since(start) < r.seconds || len(passes) < need {
		if time.Since(start) > 3*r.seconds {
			return fmt.Errorf("only %d passes in %v, need %d for a median", len(passes), 3*r.seconds, need)
		}
		passes = append(passes, f.pass(r, hp))
	}
	r.info["passes"] = len(passes)
	r.info["pass_ms"] = map[string]float64{
		"clean":      median(column(passes, func(p fig8Pass) float64 { return p.clean })),
		"clean_noq9": median(column(passes, func(p fig8Pass) float64 { return p.cleanNoQ9 })),
		"original":   median(column(passes, func(p fig8Pass) float64 { return p.orig })),
	}
	// A pass's kinds are its 26 statements: each query, original and clean.
	var kinds []float64
	for i := range f.queries {
		kinds = append(kinds,
			median(column(passes, func(p fig8Pass) float64 { return p.origQ[i] })),
			median(column(passes, func(p fig8Pass) float64 { return p.cleanQ[i] })))
	}
	r.set("op_ms", median(column(passes, func(p fig8Pass) float64 { return p.orig + p.clean })), "ms")
	r.set("geomean_ms", geomean(kinds), "ms")
	r.set("peak_heap_mb", hp.mb(), "MB")
	r.okRatio()
	return nil
}

// prepare computes every statement's reference answer once, serially
// (parallelism 1, shards 1), and resolves the traced pipeline's options.
func (f *fig8) prepare() error {
	f.cat = tpch.Catalog()
	f.queries = tpch.All()
	f.q9 = -1
	ref := engine.NewWithOptions(f.d.Store, engine.Options{Parallelism: 1, Shards: 1})
	for i, q := range f.queries {
		if q.Number == 9 {
			f.q9 = i
		}
		res, err := ref.Query(q.SQL)
		if err != nil {
			return fmt.Errorf("Q%d reference: %w", q.Number, err)
		}
		fc := floatColumns(len(res.Columns), res.Rows)
		f.origFC, f.origRef = append(f.origFC, fc), append(f.origRef, digestValues(fc, res.Rows))
		rw, err := f.rewrite(q.SQL)
		if err != nil {
			return err
		}
		res, err = ref.QueryStmt(rw)
		if err != nil {
			return fmt.Errorf("Q%d clean reference: %w", q.Number, err)
		}
		fc = floatColumns(len(res.Columns), res.Rows)
		f.cleanFC, f.cleanRef = append(f.cleanFC, fc), append(f.cleanRef, digestValues(fc, res.Rows))
	}
	if f.q9 < 0 {
		return fmt.Errorf("Q9 missing from the evaluation queries")
	}
	procs := runtime.GOMAXPROCS(0)
	f.shards = make(map[*storage.Table]*storage.ShardedTable)
	f.popts = plan.Options{Parallelism: procs, Shards: procs}
	if procs > 1 {
		f.popts.Sharder = func(tb *storage.Table) exec.ShardView {
			if v, ok := f.shards[tb]; ok {
				return v
			}
			v := storage.NewShardedTable(tb, procs)
			f.shards[tb] = v
			return v
		}
	}
	return nil
}

// rewrite parses sql and applies RewriteClean.
func (f *fig8) rewrite(sql string) (*sqlparse.SelectStmt, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return rewrite.RewriteClean(f.cat, stmt)
}

// pass runs the thirteen originals as SQL text, then each query's clean
// answers as parse → RewriteClean → execute, both halves in one seeded
// order, checking every answer against its reference outside the timed
// calls.
func (f *fig8) pass(r *run, hp *heapPeak) fig8Pass {
	p := fig8Pass{origQ: make([]float64, len(f.queries)), cleanQ: make([]float64, len(f.queries))}
	order := f.rng.Perm(len(f.queries))
	for _, i := range order {
		q := f.queries[i]
		hp.gc() // every statement starts from the same heap state
		start := time.Now()
		res, err := f.eng.Query(q.SQL)
		p.origQ[i] = ms(time.Since(start))
		p.orig += p.origQ[i]
		f.check(r, q.Number, "original", res, err, f.origFC[i], f.origRef[i])
		hp.sample()
	}
	for _, i := range order {
		q := f.queries[i]
		hp.gc()
		start := time.Now()
		var res *engine.Result
		rw, err := f.rewrite(q.SQL)
		if err == nil {
			res, err = f.eng.QueryStmt(rw)
		}
		p.cleanQ[i] = ms(time.Since(start))
		p.clean += p.cleanQ[i]
		if i != f.q9 {
			p.cleanNoQ9 += p.cleanQ[i]
		}
		f.check(r, q.Number, "clean", res, err, f.cleanFC[i], f.cleanRef[i])
		hp.sample()
	}
	return p
}

func (f *fig8) check(r *run, q int, kind string, res *engine.Result, err error, fc []bool, want digest) {
	r.attempted++
	if err == nil {
		err = want.match(digestValues(fc, res.Rows))
	}
	if err != nil {
		r.fail(fmt.Errorf("Q%d %s: %w", q, kind, err))
	}
}

// tableRows counts the rows of every table.
func tableRows(db *storage.DB) map[string]int {
	out := make(map[string]int)
	for _, name := range db.TableNames() {
		tb, _ := db.Table(name)
		out[name] = tb.Len()
	}
	return out
}

// traced alternates untraced passes with passes that drive the layers
// directly — sqlparse.Parse → rewrite.RewriteClean → plan.Plan →
// exec.CollectBatchesGoverned — under a span per call, and reports the
// per-layer metrics.
func (f *fig8) traced(r *run, genMs []float64) error {
	var plain, traced []fig8Pass
	var execMs, q9Ms, gcs, allocMB, rowsOut []float64
	var peakRows int64
	start := time.Now()
	for n := 0; time.Since(start) < r.seconds || len(traced) < 3; n++ {
		plain = append(plain, f.pass(r, &heapPeak{}))
		gc0, al0 := readCounter(gcCycleMetric), readCounter(allocsMetric)
		tp, st := f.tracedPass(r, n == 0)
		gcs = append(gcs, float64(readCounter(gcCycleMetric)-gc0))
		allocMB = append(allocMB, float64(readCounter(allocsMetric)-al0)/(1<<20))
		traced = append(traced, tp)
		execMs, q9Ms, rowsOut = append(execMs, st.execMs), append(q9Ms, st.q9Ms), append(rowsOut, float64(st.rows))
		peakRows = max(peakRows, st.bufferedPeak)
	}
	r.info["passes"] = map[string]int{"untraced": len(plain), "traced": len(traced)}

	self := selfByName(r.tr.snapshot())
	r.set("sqlparse.parse_us", 1000*mean(self["sqlparse.Parse"]), "us")
	r.set("rewrite.rewrite_us", 1000*mean(self["rewrite.RewriteClean"]), "us")
	r.set("plan.plan_us", 1000*mean(self["plan.Plan"]), "us")
	r.set("exec.exec_ms", median(execMs), "ms")
	r.set("exec.q9_ms", median(q9Ms), "ms")
	r.set("exec.gc_cycles", median(gcs), "count")
	r.set("exec.alloc_mb", median(allocMB), "MB")
	r.set("exec.buffered_peak_rows", float64(peakRows), "rows")
	r.set("exec.rows_out", median(rowsOut), "rows")
	r.set("uisgen.generate_ms", median(genMs), "ms")

	// Fig 8's figure: clean over original, per query and in total, from
	// the untraced passes' per-query medians.
	var sumClean, sumOrig float64
	for i, q := range f.queries {
		var o, c []float64
		for _, p := range plain {
			o, c = append(o, p.origQ[i]), append(c, p.cleanQ[i])
		}
		mo, mc := median(o), median(c)
		sumOrig, sumClean = sumOrig+mo, sumClean+mc
		r.set(fmt.Sprintf("rewrite.overhead_ratio.q%d", q.Number), mc/mo, "ratio")
	}
	r.set("rewrite.overhead_ratio", sumClean/sumOrig, "ratio")

	clean := func(p fig8Pass) float64 { return p.clean }
	r.set("tracing.overhead", median(column(traced, clean))/median(column(plain, clean)), "ratio")
	return nil
}

// tracedStats are the exec-layer counts of one traced pass.
type tracedStats struct {
	execMs, q9Ms float64
	rows         int
	bufferedPeak int64
}

// tracedPass runs one pass through the layers directly. On the first
// traced pass every statement's rows are also compared with
// engine.QueryStmt on the same statement: the pipeline must be the
// engine's, not a look-alike.
func (f *fig8) tracedPass(r *run, compare bool) (fig8Pass, tracedStats) {
	p := fig8Pass{origQ: make([]float64, len(f.queries)), cleanQ: make([]float64, len(f.queries))}
	var st tracedStats
	order := f.rng.Perm(len(f.queries))
	for _, clean := range []bool{false, true} {
		for _, i := range order {
			q := f.queries[i]
			req := int64(2*i) + 1
			if clean {
				req++
			}
			name := "fig8.original"
			if clean {
				name = "fig8.clean"
			}
			runtime.GC() // as in the untraced passes
			root, end := r.tr.begin(name, 0, req)
			t0 := time.Now()
			stmt, rows, execDur, peak, err := f.pipeline(r.tr, root, req, q.SQL, clean)
			d := ms(time.Since(t0))
			end()
			fc, want := f.origFC[i], f.origRef[i]
			if clean {
				fc, want = f.cleanFC[i], f.cleanRef[i]
				p.cleanQ[i], p.clean = d, p.clean+d
			} else {
				p.origQ[i], p.orig = d, p.orig+d
			}
			r.attempted++
			if err == nil {
				err = want.match(digestValues(fc, rows))
			}
			if err == nil && compare {
				err = f.sameAsEngine(stmt, rows)
			}
			if err != nil {
				r.fail(fmt.Errorf("traced Q%d %s: %w", q.Number, name, err))
				continue
			}
			st.execMs += ms(execDur)
			if clean && i == f.q9 {
				st.q9Ms = ms(execDur)
			}
			st.rows += len(rows)
			st.bufferedPeak = max(st.bufferedPeak, peak)
		}
	}
	return p, st
}

// pipeline drives one statement through the layers under spans, and
// returns the executed statement, its rows, the time spent in exec (the
// exec span has no children, so this is its self time) and the
// governor's buffered-row peak.
func (f *fig8) pipeline(tr *tracer, root, req int64, sql string, clean bool) (*sqlparse.SelectStmt, [][]value.Value, time.Duration, int64, error) {
	_, end := tr.begin("sqlparse.Parse", root, req)
	stmt, err := sqlparse.Parse(sql)
	end()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if clean {
		_, end = tr.begin("rewrite.RewriteClean", root, req)
		stmt, err = rewrite.RewriteClean(f.cat, stmt)
		end()
		if err != nil {
			return nil, nil, 0, 0, err
		}
	}
	_, end = tr.begin("plan.Plan", root, req)
	op, err := plan.Plan(f.d.Store, stmt, f.popts)
	end()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	exec.Instrument(op) // the engine instruments by default
	gov := exec.NewGovernor(context.Background(), exec.Limits{})
	exec.Attach(op, gov)
	_, end = tr.begin("exec.CollectBatchesGoverned", root, req)
	start := time.Now()
	rows, _, err := exec.CollectBatchesGoverned(op, gov, exec.ResolveBatchSize(f.popts.BatchSize))
	d := time.Since(start)
	end()
	return stmt, rows, d, gov.BufferedPeak(), err
}

// sameAsEngine checks the traced pipeline's rows are identical, in
// order and bit for bit, to engine.QueryStmt's on the same statement.
func (f *fig8) sameAsEngine(stmt *sqlparse.SelectStmt, rows [][]value.Value) error {
	res, err := f.eng.QueryStmt(stmt)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if len(res.Rows) != len(rows) {
		return fmt.Errorf("pipeline gave %d rows, engine %d", len(rows), len(res.Rows))
	}
	for i := range rows {
		if len(rows[i]) != len(res.Rows[i]) {
			return fmt.Errorf("row %d: pipeline width %d, engine %d", i, len(rows[i]), len(res.Rows[i]))
		}
		for j := range rows[i] {
			if !value.Identical(rows[i][j], res.Rows[i][j]) {
				return fmt.Errorf("row %d col %d: pipeline %v, engine %v", i, j, rows[i][j], res.Rows[i][j])
			}
		}
	}
	return nil
}
