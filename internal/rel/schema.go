package rel

import (
	"fmt"
	"sort"
)

// Schema describes one relation: its arity, which column (if any) holds
// the location specifier, its primary key, and whether it is materialized
// (a table) or a transient event stream. This mirrors NDlog's
// materialize(name, lifetime, size, keys(...)) declarations.
type Schema struct {
	Name     string
	Arity    int
	LocIndex int   // column of the @location attribute; -1 if none
	KeyCols  []int // primary key columns; nil/empty means the whole tuple
	// Persistent relations are materialized; transient ones are events
	// consumed by rule evaluation and never stored.
	Persistent bool
	// LifetimeSecs is the soft-state lifetime of base tuples in
	// simulated seconds; 0 means infinity. Re-inserting a tuple
	// refreshes its lifetime (classic NDlog soft state).
	LifetimeSecs int64
}

// NewSchema builds a persistent schema with location column 0.
func NewSchema(name string, arity int, keyCols ...int) *Schema {
	return &Schema{Name: name, Arity: arity, LocIndex: 0, KeyCols: keyCols, Persistent: true}
}

// EventSchema builds a transient (event) schema with location column 0.
func EventSchema(name string, arity int) *Schema {
	return &Schema{Name: name, Arity: arity, LocIndex: 0, Persistent: false}
}

// Validate checks internal consistency.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("rel: schema with empty name")
	}
	if s.Arity < 0 {
		return fmt.Errorf("rel: schema %s: negative arity", s.Name)
	}
	if s.LocIndex >= s.Arity {
		return fmt.Errorf("rel: schema %s: loc index %d out of range (arity %d)", s.Name, s.LocIndex, s.Arity)
	}
	seen := map[int]bool{}
	for _, k := range s.KeyCols {
		if k < 0 || k >= s.Arity {
			return fmt.Errorf("rel: schema %s: key column %d out of range (arity %d)", s.Name, k, s.Arity)
		}
		if seen[k] {
			return fmt.Errorf("rel: schema %s: duplicate key column %d", s.Name, k)
		}
		seen[k] = true
	}
	return nil
}

// EffectiveKey returns the primary key columns, defaulting to all columns.
func (s *Schema) EffectiveKey() []int {
	if len(s.KeyCols) > 0 {
		return s.KeyCols
	}
	all := make([]int, s.Arity)
	for i := range all {
		all[i] = i
	}
	return all
}

// Catalog maps relation names to schemas.
type Catalog struct {
	m map[string]*Schema
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{m: map[string]*Schema{}} }

// Define registers a schema, rejecting conflicting redefinitions.
// Re-defining an identical schema is a no-op.
func (c *Catalog) Define(s *Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if old, ok := c.m[s.Name]; ok {
		if old.Arity != s.Arity || old.LocIndex != s.LocIndex || old.Persistent != s.Persistent {
			return fmt.Errorf("rel: conflicting redefinition of relation %s", s.Name)
		}
		return nil
	}
	c.m[s.Name] = s
	return nil
}

// Lookup finds a schema by relation name.
func (c *Catalog) Lookup(name string) (*Schema, bool) {
	s, ok := c.m[name]
	return s, ok
}

// Names returns all relation names in sorted order.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.m))
	for n := range c.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the catalog (schemas are shared; they are
// immutable after Define).
func (c *Catalog) Clone() *Catalog {
	out := NewCatalog()
	for k, v := range c.m {
		out.m[k] = v
	}
	return out
}

// CheckTuple verifies that t conforms to its schema in the catalog.
func (c *Catalog) CheckTuple(t Tuple) error {
	s, ok := c.Lookup(t.Rel)
	if !ok {
		return fmt.Errorf("rel: tuple for undeclared relation %s", t.Rel)
	}
	if len(t.Vals) != s.Arity {
		return fmt.Errorf("rel: tuple %s has arity %d, schema wants %d", t.Rel, len(t.Vals), s.Arity)
	}
	for i, v := range t.Vals {
		if !v.IsValid() {
			return fmt.Errorf("rel: tuple %s column %d is invalid", t.Rel, i)
		}
	}
	if s.LocIndex >= 0 {
		if _, ok := t.Vals[s.LocIndex].AsAddr(); !ok {
			return fmt.Errorf("rel: tuple %s column %d must be an address, got %s", t.Rel, s.LocIndex, t.Vals[s.LocIndex].Kind())
		}
	}
	return nil
}
