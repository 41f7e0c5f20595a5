package graph

import (
	"bytes"
	"testing"
)

// The text readers take input from outside the program, so their contract
// is a value or an error for any bytes: never a panic, and never memory
// beyond what the input's size accounts for. The seed corpora live under
// testdata/fuzz/ and run as ordinary tests; `make fuzz` explores further.

func FuzzReadTransactions(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadTransactions(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(db.Class) != db.Len() {
			t.Fatalf("%d class labels for %d transactions", len(db.Class), db.Len())
		}
		vertices := 0
		for _, g := range db.Graphs {
			vertices += g.NumVertices()
		}
		// every vertex comes from a "v <id> <label>" record of ≥ 5 bytes
		if vertices > len(data)/5 {
			t.Fatalf("%d vertices from %d input bytes", vertices, len(data))
		}
	})
}

func FuzzReadEdgeList(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		// every vertex is a distinct id in a "u v" record of ≥ 3 bytes, and
		// every edge comes from one such record
		if n := g.NumVertices(); n > 2*len(data)/3 {
			t.Fatalf("%d vertices from %d input bytes", n, len(data))
		}
		if m := g.NumEdges(); m > int64(len(data)/3) {
			t.Fatalf("%d edges from %d input bytes", m, len(data))
		}
	})
}
