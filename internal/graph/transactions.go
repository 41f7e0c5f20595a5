package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TransactionDB is a database of small labeled graphs ("transactions"), the
// input of transactional frequent-subgraph mining (gSpan / PrefixFPM). Each
// transaction carries an optional class label for downstream graph
// classification (e.g. molecule activity).
type TransactionDB struct {
	Graphs []*Graph
	Class  []int // optional class label per transaction; nil if absent
}

// Len returns the number of transactions.
func (db *TransactionDB) Len() int { return len(db.Graphs) }

// Add appends a transaction with a class label.
func (db *TransactionDB) Add(g *Graph, class int) {
	db.Graphs = append(db.Graphs, g)
	db.Class = append(db.Class, class)
}

// ErrMalformed is wrapped by every error ReadTransactions returns for input
// it cannot parse.
var ErrMalformed = errors.New("graph: malformed transactions")

// ReadTransactions parses the standard gSpan transaction format:
//
//	t # <id>
//	v <vid> <label>
//	e <u> <v> <label>
//
// Lines beginning with "c <class>" (nonstandard extension) attach a class
// label to the current transaction. Vertex ids must be declared in order: a
// "v" record's id may not exceed the number of "v" records before it in the
// transaction, and every edge endpoint must be a declared vertex. That keeps
// memory bounded by the input's size. Malformed input returns an error
// wrapping ErrMalformed.
func ReadTransactions(r io.Reader) (*TransactionDB, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	db := &TransactionDB{}
	var b *Builder
	var class int
	var declared []bool // per vertex id of the current transaction
	var vrecs int       // "v" records read in the current transaction
	flush := func() {
		if b != nil {
			db.Graphs = append(db.Graphs, b.Build())
			db.Class = append(db.Class, class)
		}
		b = nil
		class = 0
		declared = declared[:0]
		vrecs = 0
	}
	line := 0
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: line %d: %s", ErrMalformed, line, fmt.Sprintf(format, args...))
	}
	isDeclared := func(v int) bool { return v >= 0 && v < len(declared) && declared[v] }
	for sc.Scan() {
		line++
		t := strings.TrimSpace(sc.Text())
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		f := strings.Fields(t)
		switch f[0] {
		case "t":
			flush()
			b = NewBuilder(0, false)
		case "c":
			if len(f) < 2 {
				return nil, bad("c needs a class")
			}
			c, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, bad("bad class: %v", err)
			}
			class = c
		case "v":
			if b == nil {
				return nil, bad("vertex before transaction header")
			}
			if len(f) < 3 {
				return nil, bad("v needs id and label")
			}
			id, err1 := strconv.Atoi(f[1])
			lab, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil {
				return nil, bad("bad vertex line %q", t)
			}
			if id < 0 || id > vrecs {
				return nil, bad("vertex id %d outside [0,%d]: ids must be declared in order", id, vrecs)
			}
			vrecs++
			for len(declared) <= id {
				declared = append(declared, false)
			}
			declared[id] = true
			b.Grow(id + 1)
			b.SetLabel(V(id), int32(lab))
		case "e":
			if b == nil {
				return nil, bad("edge before transaction header")
			}
			if len(f) < 4 {
				return nil, bad("e needs u v label")
			}
			u, err1 := strconv.Atoi(f[1])
			v, err2 := strconv.Atoi(f[2])
			lab, err3 := strconv.Atoi(f[3])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, bad("bad edge line %q", t)
			}
			if !isDeclared(u) || !isDeclared(v) {
				return nil, bad("edge (%d,%d) names an undeclared vertex", u, v)
			}
			b.AddLabeledEdge(V(u), V(v), int32(lab))
		default:
			return nil, bad("unknown record %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return db, nil
}

// WriteTransactions writes db in gSpan transaction format.
func WriteTransactions(w io.Writer, db *TransactionDB) error {
	bw := bufio.NewWriter(w)
	for i, g := range db.Graphs {
		fmt.Fprintf(bw, "t # %d\n", i)
		if db.Class != nil {
			fmt.Fprintf(bw, "c %d\n", db.Class[i])
		}
		for v := V(0); int(v) < g.NumVertices(); v++ {
			fmt.Fprintf(bw, "v %d %d\n", v, g.Label(v))
		}
		var err error
		g.EdgesOnce(func(u, v V) {
			if err == nil {
				_, err = fmt.Fprintf(bw, "e %d %d %d\n", u, v, g.EdgeLabel(u, v))
			}
		})
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
