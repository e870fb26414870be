// Package rowloop seeds per-row Relation.Scan callback loops — the executor
// slow path the rowloop analyzer outlaws in favor of ScanBatch.
package rowloop

type row []int

type relation interface {
	Scan(fn func(row) error) error
	ScanBatch(batchRows int, fn func([]row) error) error
}

// materialize drains a relation one row at a time — one dispatch and one
// accounting touch per tuple.
func materialize(rel relation) ([]row, error) {
	var out []row
	err := rel.Scan(func(r row) error { // want `row-at-a-time Relation.Scan loop in the executor`
		out = append(out, r)
		return nil
	})
	return out, err
}

// countRows loops per row just to count.
func countRows(rel relation) (int, error) {
	n := 0
	err := rel.Scan(func(r row) error { // want `row-at-a-time Relation.Scan loop in the executor`
		n++
		return nil
	})
	return n, err
}

// materializeBatched is the sanctioned shape: one callback per batch.
func materializeBatched(rel relation) ([]row, error) {
	var out []row
	err := rel.ScanBatch(4096, func(rows []row) error {
		out = append(out, rows...)
		return nil
	})
	return out, err
}

// namedCallback passes a named function instead of an inline loop body: it
// is still one callback per row.
func namedCallback(rel relation, fn func(row) error) error {
	return rel.Scan(fn) // want `row-at-a-time Relation.Scan loop in the executor`
}
