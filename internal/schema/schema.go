// Package schema describes table shapes and provides the binary row codec
// used for on-page storage and for the host/storage wire protocol.
package schema

import (
	"fmt"
	"strings"

	"ironsafe/internal/value"
)

// Column is one column of a table or intermediate result.
type Column struct {
	Name string
	Kind value.Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// New builds a schema from (name, kind) pairs.
func New(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// Col is a convenience constructor for a Column.
func Col(name string, kind value.Kind) Column {
	return Column{Name: name, Kind: kind}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// IndexOf returns the position of the named column, or -1. Lookup is
// case-insensitive and also accepts "qualifier.name" forms: an unqualified
// request matches a qualified column when the suffix matches unambiguously.
func (s *Schema) IndexOf(name string) int {
	lower := strings.ToLower(name)
	// Exact match first.
	for i, c := range s.Columns {
		if strings.ToLower(c.Name) == lower {
			return i
		}
	}
	// Unqualified request against qualified columns.
	if !strings.Contains(lower, ".") {
		found := -1
		for i, c := range s.Columns {
			cn := strings.ToLower(c.Name)
			if idx := strings.LastIndexByte(cn, '.'); idx >= 0 && cn[idx+1:] == lower {
				if found >= 0 {
					return -1 // ambiguous
				}
				found = i
			}
		}
		return found
	}
	// Qualified request against unqualified columns: match on suffix.
	if idx := strings.LastIndexByte(lower, '.'); idx >= 0 {
		suffix := lower[idx+1:]
		for i, c := range s.Columns {
			if strings.ToLower(c.Name) == suffix {
				return i
			}
		}
	}
	return -1
}

// Qualify returns a copy of the schema with every column name prefixed
// "alias.name" (stripping any existing qualifier).
func (s *Schema) Qualify(alias string) *Schema {
	out := &Schema{Columns: make([]Column, len(s.Columns))}
	for i, c := range s.Columns {
		name := c.Name
		if idx := strings.LastIndexByte(name, '.'); idx >= 0 {
			name = name[idx+1:]
		}
		out.Columns[i] = Column{Name: alias + "." + name, Kind: c.Kind}
	}
	return out
}

// Select returns a schema holding s's columns at positions cols, in that
// order; nil selects every column and returns s itself.
func (s *Schema) Select(cols []int) *Schema {
	if cols == nil {
		return s
	}
	out := &Schema{Columns: make([]Column, len(cols))}
	for i, c := range cols {
		out.Columns[i] = s.Columns[c]
	}
	return out
}

// Concat returns a schema holding s's columns followed by t's.
func (s *Schema) Concat(t *Schema) *Schema {
	out := &Schema{Columns: make([]Column, 0, len(s.Columns)+len(t.Columns))}
	out.Columns = append(out.Columns, s.Columns...)
	out.Columns = append(out.Columns, t.Columns...)
	return out
}

// String renders "name kind, name kind, ...".
func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = fmt.Sprintf("%s %s", c.Name, c.Kind)
	}
	return strings.Join(parts, ", ")
}

// Row is a tuple of values matching a schema positionally.
type Row []value.Value

// Clone returns a copy of the row (values are immutable, so a shallow copy
// of the slice is a deep copy of the tuple).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
