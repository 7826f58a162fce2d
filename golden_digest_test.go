// Golden result digests for the Figure 8 workload: every original and
// RewriteClean statement is pinned by its row count and an
// order-sensitive hash of its exact cells, so a planner or executor
// change that alters any bit of any answer — a value, a float's last
// ulp, a row's position, a column name — fails here rather than only
// against another execution mode of the same engine.
package conquer

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"conquer/internal/bench"
	"conquer/internal/engine"
	"conquer/internal/exec"
	"conquer/internal/plan"
	"conquer/internal/sqlparse"
	"conquer/internal/value"
)

// resultDigest hashes column names and every cell in row order. Each cell
// is encoded as its kind byte plus an exact payload (int64 bits, float64
// bits, length-prefixed string bytes, bool byte), so Int(2) and
// Float(2.0) digest differently, unlike value.Hash.
func resultDigest(r *engine.Result) string {
	h := sha256.New()
	var buf [9]byte
	for _, c := range r.Columns {
		binary.LittleEndian.PutUint64(buf[:8], uint64(len(c)))
		h.Write(buf[:8])
		h.Write([]byte(c))
	}
	for _, row := range r.Rows {
		binary.LittleEndian.PutUint64(buf[:8], uint64(len(row)))
		h.Write(buf[:8])
		for _, v := range row {
			buf[0] = byte(v.Kind())
			switch v.Kind() {
			case value.KindInt:
				binary.LittleEndian.PutUint64(buf[1:], uint64(v.AsInt()))
				h.Write(buf[:9])
			case value.KindFloat:
				binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.AsFloat()))
				h.Write(buf[:9])
			case value.KindString:
				s := v.AsString()
				binary.LittleEndian.PutUint64(buf[1:], uint64(len(s)))
				h.Write(buf[:9])
				h.Write([]byte(s))
			case value.KindBool:
				buf[1] = 0
				if v.AsBool() {
					buf[1] = 1
				}
				h.Write(buf[:2])
			default:
				h.Write(buf[:1])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestFig8GoldenDigests runs the 13 original and 13 rewritten Figure 8
// statements serially and unsharded on the determinism workload and
// compares each result's row count and digest against
// testdata/fig8_digests.golden (regenerate with CONQUER_UPDATE_GOLDEN=1;
// a regenerated file is a deliberate change to query answers). The
// engine pass runs at its defaults; the plan passes drain plan.Plan trees
// directly at batch sizes 1 (one row per pull) and 7 (every morsel split
// unevenly), so batch boundaries cannot move any bit of any answer.
func TestFig8GoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a TPC-H workload")
	}
	d := determinismWorkload(t)
	pairs, err := bench.PreparePairs()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewWithOptions(d.Store, engine.Options{Parallelism: 1, Shards: 1})
	got := fig8Digests(t, pairs, eng.QueryStmt)
	golden := filepath.Join("testdata", "fig8_digests.golden")
	if os.Getenv("CONQUER_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Figure 8 results drifted from %s.\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
	for _, bs := range []int{1, 7} {
		popts := plan.Options{Parallelism: 1, Shards: 1, BatchSize: bs}
		got := fig8Digests(t, pairs, func(stmt *sqlparse.SelectStmt) (*engine.Result, error) {
			op, err := plan.Plan(d.Store, stmt, popts)
			if err != nil {
				return nil, err
			}
			gov := exec.NewGovernor(context.Background(), exec.Limits{})
			rows, _, err := exec.CollectBatchesGoverned(op, gov, bs)
			if err != nil {
				return nil, err
			}
			return &engine.Result{Columns: op.Schema().Names(), Rows: rows}, nil
		})
		if got != string(want) {
			t.Errorf("batch size %d: Figure 8 results drifted from %s.\ngot:\n%s\nwant:\n%s", bs, golden, got, want)
		}
	}
}

// fig8Digests runs every pair through run and renders one golden line per
// statement.
func fig8Digests(t *testing.T, pairs []bench.QueryPair, run func(*sqlparse.SelectStmt) (*engine.Result, error)) string {
	t.Helper()
	var got strings.Builder
	for _, p := range pairs {
		orig, err := run(p.Original)
		if err != nil {
			t.Fatalf("Q%d original: %v", p.Number, err)
		}
		rew, err := run(p.Rewritten)
		if err != nil {
			t.Fatalf("Q%d rewritten: %v", p.Number, err)
		}
		fmt.Fprintf(&got, "Q%d original rows=%d digest=%s\n", p.Number, len(orig.Rows), resultDigest(orig))
		fmt.Fprintf(&got, "Q%d clean rows=%d digest=%s\n", p.Number, len(rew.Rows), resultDigest(rew))
	}
	return got.String()
}
