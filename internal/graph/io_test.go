package graph

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% another comment
0 1
1 2
2 0

10 11
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 {
		t.Fatalf("n=%d want 5 (compacted)", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("m=%d want 4", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Fatal("want error for short line")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("want error for non-numeric")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := completeGraph(6)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: n=%d m=%d", g2.NumVertices(), g2.NumEdges())
	}
}

func TestTransactionsRoundTrip(t *testing.T) {
	db := &TransactionDB{}
	b := NewBuilder(3, false)
	b.SetLabel(0, 1)
	b.SetLabel(1, 2)
	b.SetLabel(2, 1)
	b.AddLabeledEdge(0, 1, 5)
	b.AddLabeledEdge(1, 2, 6)
	db.Add(b.Build(), 1)

	b2 := NewBuilder(2, false)
	b2.SetLabel(0, 3)
	b2.SetLabel(1, 3)
	b2.AddLabeledEdge(0, 1, 7)
	db.Add(b2.Build(), 0)

	var buf bytes.Buffer
	if err := WriteTransactions(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTransactions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("len=%d", got.Len())
	}
	if got.Class[0] != 1 || got.Class[1] != 0 {
		t.Fatalf("classes = %v", got.Class)
	}
	g0 := got.Graphs[0]
	if g0.NumVertices() != 3 || g0.NumEdges() != 2 {
		t.Fatalf("t0: n=%d m=%d", g0.NumVertices(), g0.NumEdges())
	}
	if g0.Label(1) != 2 || g0.EdgeLabel(0, 1) != 5 {
		t.Fatal("t0 labels lost")
	}
}

func TestReadTransactionsErrors(t *testing.T) {
	bad := []string{
		"v 0 1\n",              // vertex before header
		"t # 0\ne 0 1\n",       // short edge
		"t # 0\nv 0\n",         // short vertex
		"t # 0\nx 1 2 3\n",     // unknown record
		"t # 0\nv zero 1\n",    // bad number
		"t\nc\n",               // class record without a class
		"t\nv -1 0\n",          // negative vertex id
		"t\ne 0 5 1\n",         // edge to an undeclared vertex
		"t\nv 99999999999 0\n", // id far beyond the records read: would allocate without bound
	}
	for i, in := range bad {
		if _, err := ReadTransactions(strings.NewReader(in)); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: want ErrMalformed for %q, got %v", i, in, err)
		}
	}
}
