package main

import (
	"errors"
	"testing"
)

// FuzzParseEdges holds the edge-list parser to its contract for any prompt
// input: an error, or edges whose ids lie in 0..len(edges), so the pattern
// built from them has at most len(edges)+1 vertices and building it cannot
// panic. The seed corpus under testdata/fuzz/ holds the inputs that used to
// panic or size the pattern by an arbitrary id.
func FuzzParseEdges(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		edges, err := parseEdges(s)
		if err != nil {
			return
		}
		for _, e := range edges {
			for _, id := range e {
				if id < 0 || int(id) > len(edges) {
					t.Fatalf("parseEdges(%q) accepted id %d with %d edges", s, id, len(edges))
				}
			}
		}
		if n := patternGraph(edges).NumVertices(); n > len(edges)+1 {
			t.Fatalf("parseEdges(%q): pattern of %d vertices from %d edges", s, n, len(edges))
		}
	})
}

func TestParseEdgesRejectsOutOfRangeIDs(t *testing.T) {
	for _, s := range []string{"0--1", "0-2", "0-1,1-3", "0-2147483648", "0-4294967296", "0-2000000000"} {
		if _, err := parseEdges(s); !errors.Is(err, errVertexID) {
			t.Errorf("parseEdges(%q): %v, want errVertexID", s, err)
		}
	}
	edges, err := parseEdges("0-1,1-2,2-0")
	if err != nil || len(edges) != 3 {
		t.Fatalf("triangle: (%v, %v)", edges, err)
	}
	if g := patternGraph(edges); g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("triangle pattern: %v", g)
	}
}
