package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"conquer/internal/dirty"
	"conquer/internal/probcalc"
	"conquer/internal/storage"
	"conquer/internal/uisgen"
)

// ingest is the state of the offline workload: a pristine unpropagated,
// unannotated instance, and the serial reference probabilities.
type ingest struct {
	pristine *storage.DB
	tables   []string            // dirty tables, in DirtyRelations order
	ref      map[string][]uint64 // table → probability column bits, row order
}

func runIngest(r *run) error {
	var genMs []float64
	ig, err := timeSetup(r, func() (*ingest, error) {
		start := time.Now()
		d, err := uisgen.Generate(uisgen.Config{
			SF: instSF, IF: instIF, Scale: instScale, Seed: r.seed,
			Propagated: false, UniformProbs: false,
		})
		genMs = append(genMs, ms(time.Since(start)))
		if err != nil {
			return nil, err
		}
		return &ingest{pristine: d.Store, tables: d.DirtyRelations()}, nil
	}, func(*ingest) {})
	if err != nil {
		return err
	}
	r.info["rows"] = tableRows(ig.pristine)
	r.info["instance_seed"] = r.seed
	r.info["dirty_tables"] = ig.tables
	if err := ig.reference(); err != nil {
		return err
	}

	hp := &heapPeak{}
	var total, plain, prop, annot, allocMB []float64
	start := time.Now()
	need := minSamples(50)
	for n := 0; time.Since(start) < r.seconds || len(total) < need; n++ {
		if time.Since(start) > 3*r.seconds {
			return fmt.Errorf("only %d iterations in %v, need %d for a median", len(total), 3*r.seconds, need)
		}
		store, err := ig.pristine.Clone() // outside the timed region
		if err != nil {
			return err
		}
		// A traced run traces every other iteration; the untraced ones
		// give the tracing overhead under the same conditions.
		tr := r.tr
		if n%2 == 1 {
			tr = nil
		}
		hp.gc() // every iteration starts from the same heap state
		it, err := ig.iterate(tr, int64(n+1), store)
		hp.sample()
		r.attempted++
		if err == nil {
			err = ig.check(store)
		}
		if err != nil {
			r.fail(err)
			continue
		}
		if r.tr != nil && tr == nil {
			plain = append(plain, it.total)
			continue
		}
		total, prop, annot = append(total, it.total), append(prop, it.propagate), append(annot, it.annotate)
		allocMB = append(allocMB, it.annotateMB)
	}
	r.info["iterations"] = r.attempted
	if r.tr != nil {
		r.set("dirty.propagate_ms", median(prop), "ms")
		r.set("probcalc.annotate_ms", median(annot), "ms")
		r.set("probcalc.alloc_mb", median(allocMB), "MB")
		r.set("uisgen.generate_ms", median(genMs), "ms")
		r.set("tracing.overhead", median(total)/median(plain), "ratio")
		return nil
	}
	p50, ok := percentile(total, 50)
	if !ok {
		return fmt.Errorf("%d iterations are too few for a median", len(total))
	}
	r.set("op_ms", p50, "ms")
	r.set("geomean_ms", geomean([]float64{median(prop), median(annot)}), "ms")
	r.set("peak_heap_mb", hp.mb(), "MB")
	r.okRatio()
	return nil
}

// reference propagates a clone and annotates every dirty table serially
// (AnnotateTablePar at parallelism 1), keeping the probability bits.
func (ig *ingest) reference() error {
	store, err := ig.pristine.Clone()
	if err != nil {
		return err
	}
	d := dirty.New(store)
	if _, err := d.PropagateAll(); err != nil {
		return fmt.Errorf("reference propagation: %w", err)
	}
	ig.ref = make(map[string][]uint64)
	for _, name := range ig.tables {
		tb, _ := store.Table(name)
		if err := probcalc.AnnotateTablePar(tb, nil, nil, 1); err != nil {
			return fmt.Errorf("reference annotation of %s: %w", name, err)
		}
		ig.ref[name] = probBits(tb)
	}
	if err := d.Validate(); err != nil {
		return fmt.Errorf("reference violates Dfn 2: %w", err)
	}
	return nil
}

// probBits returns the bit patterns of a table's probability column.
func probBits(tb *storage.Table) []uint64 {
	pi := tb.Schema.ProbIndex()
	out := make([]uint64, tb.Len())
	for i, row := range tb.Rows() {
		out[i] = math.Float64bits(row[pi].AsFloat())
	}
	return out
}

// ingestIter is one iteration's timings.
type ingestIter struct {
	total, propagate, annotate float64 // ms
	annotateMB                 float64 // bytes allocated while annotating
}

// iterate makes the calls the conquer facade makes on load: PropagateAll,
// then AnnotateTableSharded at the facade defaults (shards and
// parallelism = GOMAXPROCS) for every dirty table.
func (ig *ingest) iterate(tr *tracer, req int64, store *storage.DB) (ingestIter, error) {
	var it ingestIter
	procs := runtime.GOMAXPROCS(0)
	root, endRoot := tr.begin("ingest.iteration", 0, req)
	start := time.Now()
	d := dirty.New(store)
	_, end := tr.begin("dirty.PropagateAll", root, req)
	_, err := d.PropagateAll()
	end()
	it.propagate = ms(time.Since(start))
	if err != nil {
		endRoot()
		return it, fmt.Errorf("propagation: %w", err)
	}
	var al0 uint64
	if tr != nil {
		al0 = readCounter(allocsMetric)
	}
	annStart := time.Now()
	for _, name := range ig.tables {
		tb, _ := store.Table(name)
		_, end := tr.begin("probcalc.AnnotateTableSharded", root, req)
		err := probcalc.AnnotateTableSharded(tb, nil, nil, procs, procs)
		end()
		if err != nil {
			endRoot()
			return it, fmt.Errorf("annotating %s: %w", name, err)
		}
	}
	it.annotate = ms(time.Since(annStart))
	it.total = ms(time.Since(start))
	endRoot()
	if tr != nil {
		it.annotateMB = float64(readCounter(allocsMetric)-al0) / (1 << 20)
	}
	return it, nil
}

// check verifies Dfn 2 and the probabilities against the serial
// reference, bit for bit.
func (ig *ingest) check(store *storage.DB) error {
	if err := dirty.New(store).Validate(); err != nil {
		return fmt.Errorf("Dfn 2: %w", err)
	}
	for _, name := range ig.tables {
		tb, _ := store.Table(name)
		got, want := probBits(tb), ig.ref[name]
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d rows, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%s row %d: probability %v, serial reference %v",
					name, i, math.Float64frombits(got[i]), math.Float64frombits(want[i]))
			}
		}
	}
	return nil
}
