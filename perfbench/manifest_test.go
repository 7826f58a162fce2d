package main

import (
	"path/filepath"
	"testing"
)

func TestManifestLoads(t *testing.T) {
	m, err := loadManifest(filepath.Join("..", manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, x := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
		if x.Name == "" || x.Unit == "" || seen[x.Name] {
			t.Errorf("metric %q (unit %q) is unnamed, unitless or listed twice", x.Name, x.Unit)
		}
		seen[x.Name] = true
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		t.Errorf("manifest lists %d end-to-end and %d per-layer metrics", len(m.EndToEnd), len(m.PerLayer))
	}
}

func TestCompleteAgainstManifest(t *testing.T) {
	want := []manifestMetric{{"a_ms", "ms"}, {"b", "count"}}

	got := map[string]metric{"a_ms": {1.5, "ms"}}
	if err := complete(got, want, false); err == nil {
		t.Error("an untraced run missing a listed metric passed")
	}
	if err := complete(got, want, true); err != nil {
		t.Errorf("traced run: %v", err)
	}
	if m := got["b"]; m != (metric{0, "count"}) {
		t.Errorf("an uncalled layer reads %+v, want 0 in the listed unit", m)
	}

	if err := complete(map[string]metric{"a_ms": {1, "s"}, "b": {1, "count"}}, want, false); err == nil {
		t.Error("a metric in the wrong unit passed")
	}
	if err := complete(map[string]metric{"a_ms": {1, "ms"}, "b": {1, "count"}, "c": {1, "ms"}}, want, true); err == nil {
		t.Error("a metric missing from the manifest passed")
	}
}
