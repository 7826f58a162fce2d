package main

import (
	"reflect"
	"testing"
)

func TestBindingsDeterministicPerSeed(t *testing.T) {
	a, err := genBindings(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genBindings(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(serveTemplates)*4 {
		t.Fatalf("got %d bindings, want %d", len(a), len(serveTemplates)*4)
	}
	for i := range a {
		if a[i].SQL != b[i].SQL || a[i].CleanSQL != b[i].CleanSQL {
			t.Fatalf("binding %d differs between two draws from seed 7:\n%s\n%s", i, a[i].SQL, b[i].SQL)
		}
	}
	c, err := genBindings(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].SQL == c[i].SQL {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 drew identical binding sets")
	}
	if ra, rb := genRequests(7, 4, 500), genRequests(7, 4, 500); !reflect.DeepEqual(ra, rb) {
		t.Error("request sequence differs between two draws from seed 7")
	}
}

func TestBindingsAreDistinctAndSubstituted(t *testing.T) {
	bs, err := genBindings(1, servePerTemplate)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, b := range bs {
		if seen[b.SQL] {
			t.Errorf("duplicate binding %s", b.SQL)
		}
		seen[b.SQL] = true
		if b.Query == 9 {
			t.Error("Q9 is not a serve template")
		}
	}
}

func TestRequestsFollowZipf(t *testing.T) {
	const per = 8
	reqs := genRequests(3, per, 24000)
	counts := make(map[int]int)
	perTemplate := make(map[int]int)
	clean := 0
	for _, r := range reqs {
		counts[r.Binding]++
		perTemplate[r.Binding/per]++
		if r.Clean {
			clean++
		}
	}
	// Templates share the load evenly: 2000 requests each.
	for tm := 0; tm < len(serveTemplates); tm++ {
		if c := perTemplate[tm]; c < 1800 || c > 2200 {
			t.Errorf("template %d drew %d of 24000 requests, want about 2000", tm, c)
		}
	}
	// Within a template, Zipf(1.1) over 8 ranks puts about a third of
	// the draws on rank one and leaves every rank some.
	for tm := 0; tm < len(serveTemplates); tm++ {
		if c := counts[tm*per]; c < 500 {
			t.Errorf("template %d's hottest binding drew %d requests, want about 700", tm, c)
		}
		if c := counts[tm*per+per-1]; c == 0 {
			t.Errorf("template %d's coldest binding never drawn", tm)
		}
	}
	if clean < 11400 || clean > 12600 {
		t.Errorf("%d of 24000 requests hit /v1/clean, want about half", clean)
	}
}
