package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"conquer/internal/rewrite"
	"conquer/internal/schema"
	"conquer/internal/sqlparse"
	"conquer/internal/tpch"
)

// param is one substitution parameter of a serve template: the literal
// text(s) it replaces in the TPC-H query, and the values it may take.
// Dependent literals (a date range's two ends) form one parameter, so a
// binding never pairs a start with an unrelated end.
type param struct {
	literals []string
	choices  [][]string
}

// template is one TPC-H query with its substitution parameters.
type template struct {
	query  int
	params []param
}

// serveTemplates are the twelve non-Q9 evaluation queries with their
// TPC-H substitution parameters. Q9 is left out: one Q9 request holds a
// connection and both cores for the length of a whole fig8 pass.
var serveTemplates = []template{
	{1, []param{one("'1998-09-02'", days(1998, 8, 3, 61)...)}},
	{2, []param{
		{[]string{"p.p_size = 15"}, thresholds("p.p_size = %d", 1, 50)},
		one("'%BRASS'", "'%BRASS'", "'%TIN'", "'%NICKEL'", "'%STEEL'", "'%COPPER'"),
		one("'EUROPE'", "'EUROPE'", "'AFRICA'", "'AMERICA'", "'ASIA'", "'MIDDLE EAST'"),
	}},
	{3, []param{
		one("'BUILDING'", "'BUILDING'", "'AUTOMOBILE'", "'FURNITURE'", "'MACHINERY'", "'HOUSEHOLD'"),
		one("'1995-03-15'", days(1995, 3, 1, 31)...),
	}},
	{4, []param{ranges("'1993-07-01'", "'1993-10-01'", 1993, 1, 58, 3)}},
	{6, []param{
		years("'1994-01-01'", "'1995-01-01'", 1993, 5),
		{[]string{"between 0.05 and 0.07"}, discounts()},
		{[]string{"l_quantity < 24"}, thresholds("l_quantity < %d", 24, 25)},
	}},
	{10, []param{ranges("'1993-10-01'", "'1994-01-01'", 1993, 2, 24, 3)}},
	{11, []param{one("'GERMANY'", quoted(nations)...)}},
	{12, []param{
		{[]string{"('MAIL', 'SHIP')"}, modePairs()},
		years("'1994-01-01'", "'1995-01-01'", 1993, 5),
	}},
	{14, []param{ranges("'1995-09-01'", "'1995-10-01'", 1993, 1, 60, 1)}},
	{17, []param{
		one("'Brand#23'", "'Brand#23'", "'Brand#11'", "'Brand#12'", "'Brand#21'", "'Brand#31'", "'Brand#34'", "'Brand#43'", "'Brand#55'"),
		one("'MED BOX'", containers()...),
	}},
	// Q18's threshold stays within (48, 49], as TPC-H keeps its Q18
	// quantity within 312..315: quantities are whole numbers, so every
	// binding selects the same rows at the same cost, while each is a
	// distinct statement to the cache. A wide range would swing the cost
	// of this, the heaviest template, sevenfold between seeds.
	{18, []param{one("l.l_quantity >= 49", decimals("l.l_quantity >= %.1f", 48.1, 49.0)...)}},
	{20, []param{
		one("'forest%'", "'forest%'", "'green%'", "'azure%'", "'blue%'", "'ivory%'", "'lemon%'", "'navy%'", "'peach%'"),
		one("'CANADA'", quoted(nations)...),
	}},
}

// TPC-H value domains the generator draws from.
var (
	nations = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
		"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO",
		"MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA",
		"UNITED KINGDOM", "UNITED STATES"}
	shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
)

func quoted(xs []string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = "'" + x + "'"
	}
	return out
}

// discounts is Q6's DISCOUNT in 0.02..0.09 as a ±0.01 band.
func discounts() [][]string {
	var out [][]string
	for d := 2; d <= 9; d++ {
		out = append(out, []string{fmt.Sprintf("between 0.%02d and 0.%02d", d-1, d+1)})
	}
	return out
}

// modePairs is Q12's pair of distinct ship modes.
func modePairs() [][]string {
	var out [][]string
	for i, a := range shipModes {
		for _, b := range shipModes[i+1:] {
			out = append(out, []string{fmt.Sprintf("('%s', '%s')", a, b)})
		}
	}
	return out
}

// containers is Q17's CONTAINER: every size × kind pair.
func containers() []string {
	var out []string
	for _, a := range []string{"SM", "MED", "LG", "JUMBO", "WRAP"} {
		for _, b := range []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"} {
			out = append(out, "'"+a+" "+b+"'")
		}
	}
	return out
}

// one is a single-literal parameter.
func one(literal string, choices ...string) param {
	p := param{literals: []string{literal}}
	for _, c := range choices {
		p.choices = append(p.choices, []string{c})
	}
	return p
}

// thresholds lists format bound to each integer lo..hi.
func thresholds(format string, lo, hi int) [][]string {
	var out [][]string
	for v := lo; v <= hi; v++ {
		out = append(out, []string{fmt.Sprintf(format, v)})
	}
	return out
}

// decimals lists format bound to lo, lo+0.1, ..., hi.
func decimals(format string, lo, hi float64) []string {
	var out []string
	for i := 0; lo+float64(i)/10 <= hi+0.05; i++ {
		out = append(out, fmt.Sprintf(format, lo+float64(i)/10))
	}
	return out
}

// days lists n quoted consecutive dates from y-m-d.
func days(y, m, d, n int) []string {
	first := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
	out := make([]string, n)
	for i := range out {
		out[i] = first.AddDate(0, 0, i).Format("'2006-01-02'")
	}
	return out
}

// ranges is a [start, start+span months) date-range parameter whose
// start runs monthly over n months from y-m.
func ranges(lo, hi string, y, m, n, span int) param {
	p := param{literals: []string{lo, hi}}
	start := time.Date(y, time.Month(m), 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		a := start.AddDate(0, i, 0)
		p.choices = append(p.choices, []string{a.Format("'2006-01-02'"), a.AddDate(0, span, 0).Format("'2006-01-02'")})
	}
	return p
}

// years is a one-year date-range parameter starting each January 1st of
// n years from y.
func years(lo, hi string, y, n int) param {
	p := param{literals: []string{lo, hi}}
	for i := 0; i < n; i++ {
		p.choices = append(p.choices, []string{
			fmt.Sprintf("'%04d-01-01'", y+i), fmt.Sprintf("'%04d-01-01'", y+i+1)})
	}
	return p
}

// binding is one generated serve statement: a template with every
// parameter bound, in its original form (sent to /v1/clean) and its
// RewriteClean form (sent to /v1/query).
type binding struct {
	Query     int
	Values    []string
	SQL       string
	CleanSQL  string
	Original  *sqlparse.SelectStmt
	Rewritten *sqlparse.SelectStmt
}

// request is one scheduled serve request.
type request struct {
	Binding int  // index into the binding set
	Clean   bool // /v1/clean with the template SQL; else /v1/query with the rewriting
}

// genBindings draws perTemplate distinct bindings of every serve
// template from seed. Every statement is checked rewritable (Dfn 7) here,
// so a binding the rewriting would refuse never reaches the server.
func genBindings(seed int64, perTemplate int) ([]binding, error) {
	rng := rand.New(rand.NewSource(seed))
	cat := tpch.Catalog()
	var out []binding
	for _, t := range serveTemplates {
		q, err := tpch.Get(t.query)
		if err != nil {
			return nil, err
		}
		for _, p := range t.params {
			for _, lit := range p.literals {
				if !strings.Contains(q.SQL, lit) {
					return nil, fmt.Errorf("Q%d: literal %s not in query text", t.query, lit)
				}
			}
		}
		combos := 1
		for _, p := range t.params {
			combos *= len(p.choices)
		}
		if combos < perTemplate {
			return nil, fmt.Errorf("Q%d: only %d distinct bindings, want %d", t.query, combos, perTemplate)
		}
		seen := make(map[string]bool)
		for len(seen) < perTemplate {
			var vals, pairs []string
			for _, p := range t.params {
				c := p.choices[rng.Intn(len(p.choices))]
				vals = append(vals, c...)
				for i, lit := range p.literals {
					pairs = append(pairs, lit, c[i])
				}
			}
			key := strings.Join(vals, "|")
			if seen[key] {
				continue
			}
			seen[key] = true
			b, err := bind(cat, t.query, strings.NewReplacer(pairs...).Replace(q.SQL), vals)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
	}
	return out, nil
}

// bind parses, analyzes and rewrites one bound statement.
func bind(cat *schema.Catalog, query int, sql string, vals []string) (binding, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return binding{}, fmt.Errorf("Q%d %v: %w", query, vals, err)
	}
	a, err := rewrite.Analyze(cat, stmt)
	if err != nil {
		return binding{}, fmt.Errorf("Q%d %v: %w", query, vals, err)
	}
	if !a.Rewritable {
		return binding{}, fmt.Errorf("Q%d %v: not rewritable: %s", query, vals, strings.Join(a.Reasons, "; "))
	}
	rw, err := rewrite.RewriteClean(cat, stmt)
	if err != nil {
		return binding{}, fmt.Errorf("Q%d %v: %w", query, vals, err)
	}
	return binding{Query: query, Values: vals, SQL: sql, CleanSQL: rw.SQL(), Original: stmt, Rewritten: rw}, nil
}

// genRequests draws n requests over the binding set from seed. Each
// request picks its template uniformly, then a binding of that template
// by Zipf(s = 1.1) rank, so a few statements repeat often and the rest
// rarely. Every seed thus offers each template the same share of the
// load; seeds differ in which bindings exist and which are hot.
// Endpoints are 50/50.
func genRequests(seed int64, perTemplate, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	nt := len(serveTemplates)
	z := rand.NewZipf(rng, 1.1, 1, uint64(perTemplate-1))
	out := make([]request, n)
	for i := range out {
		t := rng.Intn(nt)
		out[i] = request{Binding: t*perTemplate + int(z.Uint64()), Clean: rng.Intn(2) == 0}
	}
	return out
}
