package core

import (
	"encoding/hex"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"rottnest/internal/component"
	"rottnest/internal/insitu"
)

// Op is a compound-expression node type.
type Op int

const (
	// OpLeaf is a single predicate.
	OpLeaf Op = iota
	// OpAnd intersects its children.
	OpAnd
	// OpOr unions its children.
	OpOr
)

// Pred is one predicate leaf of a compound query: exactly one of
// UUID, Substring, Regex, or Vector must be set, mirroring Query.
// A Vector leaf ranks rather than filters; it may appear only at the
// root of the tree or as a direct child of a root AND (its siblings
// become the filter the plan applies before refinement).
type Pred struct {
	// Column is the column the predicate applies to.
	Column string
	// UUID is an exact-match key (trie index).
	UUID *[16]byte
	// Substring is an exact substring pattern (FM-index).
	Substring []byte
	// Regex is a regular expression (FM-index via required literal).
	Regex string
	// Vector is a query embedding (IVF-PQ index); NProbe and Refine
	// carry the recall knobs (same defaults as Query).
	Vector []float32
	NProbe int
	Refine int
}

func (p *Pred) kind() (component.Kind, error) {
	set := 0
	var kind component.Kind
	if p.UUID != nil {
		set, kind = set+1, component.KindTrie
	}
	if p.Substring != nil {
		set, kind = set+1, component.KindFM
	}
	if p.Regex != "" {
		set, kind = set+1, component.KindFM
	}
	if p.Vector != nil {
		set, kind = set+1, component.KindIVFPQ
	}
	if p.Column == "" {
		return 0, fmt.Errorf("core: predicate has no column")
	}
	if set != 1 {
		return 0, fmt.Errorf("core: predicate on %q must set exactly one of UUID, Substring, Regex, Vector (got %d)", p.Column, set)
	}
	return kind, nil
}

// Expr is a node of a compound boolean predicate tree.
type Expr struct {
	// Op is the node type; OpLeaf nodes carry Pred, the others carry
	// Children.
	Op       Op
	Pred     *Pred
	Children []*Expr
}

// Leaf wraps a predicate as an expression.
func Leaf(p Pred) *Expr { return &Expr{Op: OpLeaf, Pred: &p} }

// And combines expressions conjunctively.
func And(children ...*Expr) *Expr { return &Expr{Op: OpAnd, Children: children} }

// Or combines expressions disjunctively.
func Or(children ...*Expr) *Expr { return &Expr{Op: OpOr, Children: children} }

// PredUUID builds an exact-match leaf.
func PredUUID(column string, key [16]byte) *Expr {
	return Leaf(Pred{Column: column, UUID: &key})
}

// PredSubstring builds a substring leaf.
func PredSubstring(column string, pattern []byte) *Expr {
	return Leaf(Pred{Column: column, Substring: append([]byte(nil), pattern...)})
}

// PredRegex builds a regular-expression leaf.
func PredRegex(column, expr string) *Expr {
	return Leaf(Pred{Column: column, Regex: expr})
}

// PredVector builds a vector top-k leaf (rankable; see Pred).
func PredVector(column string, vec []float32, nprobe, refine int) *Expr {
	return Leaf(Pred{Column: column, Vector: append([]float32(nil), vec...), NProbe: nprobe, Refine: refine})
}

// CompoundQuery describes one compound search: a boolean tree of
// predicates executed as a single plan — each referenced index probed
// once, candidate page sets intersected before any data page is
// fetched, and every surviving page read at most once.
type CompoundQuery struct {
	// Expr is the predicate tree.
	Expr *Expr
	// K bounds the result count (0 = all matches for pure-filter
	// trees; required > 0 when the tree contains a vector leaf).
	K int
	// Snapshot selects the lake snapshot (-1 or 0 = latest).
	Snapshot int64
	// Partition optionally restricts the searched files, exactly as
	// Query.Partition.
	Partition *PartitionFilter
	// FileRange optionally restricts the searched files to a
	// contiguous path range, exactly as Query.FileRange.
	FileRange *FileRange
	// Output names the column whose values populate Match.Value. It
	// must be the column of one of the tree's predicates; empty means
	// the first predicate's column in the tree as written (or the
	// vector column for ranked queries).
	Output string
}

// compound converts a single-predicate Query to its degenerate
// compound form; Search plans every query through this path, so
// compileShape validates it as it does every compound query.
func (q Query) compound() CompoundQuery {
	p := Pred{Column: q.Column, UUID: q.UUID, Substring: q.Substring, Regex: q.Regex,
		Vector: q.Vector, NProbe: q.NProbe, Refine: q.Refine}
	return CompoundQuery{
		Expr:      &Expr{Op: OpLeaf, Pred: &p},
		K:         q.K,
		Snapshot:  q.Snapshot,
		Partition: q.Partition,
		FileRange: q.FileRange,
		Output:    q.Column,
	}
}

// normalizeExpr returns a canonical copy of the tree: nested
// same-op nodes flattened, single-child AND/OR collapsed, children
// sorted by canonical key and deduplicated. Canonical form is what
// the plan cache and the shared-probe batcher key on, so equivalent
// trees written differently share plans and probes.
func normalizeExpr(e *Expr) (*Expr, error) {
	if e == nil {
		return nil, fmt.Errorf("core: empty expression")
	}
	switch e.Op {
	case OpLeaf:
		if e.Pred == nil {
			return nil, fmt.Errorf("core: leaf without predicate")
		}
		if _, err := e.Pred.kind(); err != nil {
			return nil, err
		}
		return &Expr{Op: OpLeaf, Pred: e.Pred}, nil
	case OpAnd, OpOr:
		if len(e.Children) == 0 {
			return nil, fmt.Errorf("core: %s with no children", opName(e.Op))
		}
		var flat []*Expr
		for _, c := range e.Children {
			nc, err := normalizeExpr(c)
			if err != nil {
				return nil, err
			}
			if nc.Op == e.Op {
				flat = append(flat, nc.Children...)
			} else {
				flat = append(flat, nc)
			}
		}
		if len(flat) == 1 {
			return flat[0], nil
		}
		sort.SliceStable(flat, func(i, j int) bool { return exprKey(flat[i]) < exprKey(flat[j]) })
		uniq := flat[:1]
		for _, c := range flat[1:] {
			if exprKey(c) != exprKey(uniq[len(uniq)-1]) {
				uniq = append(uniq, c)
			}
		}
		if len(uniq) == 1 {
			return uniq[0], nil
		}
		return &Expr{Op: e.Op, Children: uniq}, nil
	default:
		return nil, fmt.Errorf("core: unknown expression op %d", e.Op)
	}
}

func opName(op Op) string {
	switch op {
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	default:
		return "LEAF"
	}
}

// exprKey renders a tree to its canonical string form. Equal keys
// mean equivalent normalized trees: normalization sorts and
// deduplicates children by it, and probe batching derives per-leaf
// probe keys from the same encoding.
func exprKey(e *Expr) string {
	var b strings.Builder
	writeExprKey(&b, e)
	return b.String()
}

func writeExprKey(b *strings.Builder, e *Expr) {
	switch e.Op {
	case OpLeaf:
		b.WriteString(predKey(e.Pred))
	case OpAnd, OpOr:
		if e.Op == OpAnd {
			b.WriteString("and(")
		} else {
			b.WriteString("or(")
		}
		for i, c := range e.Children {
			if i > 0 {
				b.WriteByte(',')
			}
			writeExprKey(b, c)
		}
		b.WriteByte(')')
	}
}

// predKey renders one predicate canonically. Byte patterns are
// hex-encoded so no input can forge a separator; vectors encode the
// exact bit pattern of every component plus the recall knobs.
func predKey(p *Pred) string {
	switch {
	case p.UUID != nil:
		return fmt.Sprintf("u:%s:%s", hex.EncodeToString([]byte(p.Column)), hex.EncodeToString(p.UUID[:]))
	case p.Substring != nil:
		return fmt.Sprintf("s:%s:%s", hex.EncodeToString([]byte(p.Column)), hex.EncodeToString(p.Substring))
	case p.Regex != "":
		return fmt.Sprintf("r:%s:%s", hex.EncodeToString([]byte(p.Column)), hex.EncodeToString([]byte(p.Regex)))
	default:
		var b strings.Builder
		fmt.Fprintf(&b, "v:%s:%d:%d:", hex.EncodeToString([]byte(p.Column)), p.NProbe, p.Refine)
		for _, f := range p.Vector {
			fmt.Fprintf(&b, "%08x", math.Float32bits(f))
		}
		return b.String()
	}
}

// planShape is the validated, normalized form of a compound query the
// executor runs: the exact (filter) leaves in canonical order, the
// optional vector leaf, and the filter subtree with leaves replaced
// by indices into the leaf list.
type planShape struct {
	// root is the normalized tree including the vector leaf.
	root *Expr
	// filter is the normalized exact subtree (nil when the query is a
	// bare vector leaf). Its leaves are the exact leaves below.
	filter *Expr
	// leaves are the exact predicate leaves of filter, in canonical
	// (normalized tree) order, each compiled for residual evaluation.
	leaves []*leafPlan
	// vector is the ranker leaf, nil for pure-filter trees. nprobe,
	// refine and maxCands are its knobs with defaults resolved: lists
	// probed per index file, candidates kept for exact re-ranking, and
	// candidates generated per index file.
	vector                   *Pred
	nprobe, refine, maxCands int
	// vecProbe is the batcher key of the normalized vector probe.
	vecProbe string
	// units names the metadata listings the plan needs: one per exact
	// leaf, then one for the vector leaf, so cached listings align.
	units []probeUnit
	// columns are the columns the read stage reads, in the order its
	// runs hold them: the exact leaves' columns in leaf order, then the
	// ranker's. vecPos and outPos are the positions of the ranker's
	// column (-1 for pure-filter plans) and of the output column, whose
	// value populates Match.Value.
	columns        []string
	vecPos, outPos int
	// kernel is the filter tree and ranker compiled for the read stage.
	kernel insitu.Kernel
}

// probeUnit names one metadata listing a plan needs.
type probeUnit struct {
	column string
	kind   component.Kind
}

// defaultNProbe resolves the IVF-PQ probe width: the number of coarse
// lists probed per index file when the query does not say.
func defaultNProbe(nprobe int) int {
	if nprobe <= 0 {
		nprobe = 8
	}
	return nprobe
}

// leafPlan is one exact predicate leaf compiled for execution.
type leafPlan struct {
	pred *Pred
	kind component.Kind
	// pattern drives the index lookup: the UUID, the substring itself
	// or the regex's required literal. probe is its batcher-key form
	// (hex, so no input forges a separator).
	pattern []byte
	probe   string
	// indexable is false when no index can serve the leaf (regex with
	// no usable literal): the leaf admits every row and is checked
	// purely in situ.
	indexable bool
	// re is a regex leaf's compiled expression, for the exact re-check.
	re *regexp.Regexp
}

// firstLeafColumn returns the column of the first leaf in the tree as
// written (pre-normalization), for the Output default.
func firstLeafColumn(e *Expr) string {
	if e == nil {
		return ""
	}
	if e.Op == OpLeaf {
		if e.Pred != nil {
			return e.Pred.Column
		}
		return ""
	}
	for _, c := range e.Children {
		if col := firstLeafColumn(c); col != "" {
			return col
		}
	}
	return ""
}

// compileShape validates cq and produces its executable shape.
func compileShape(cq CompoundQuery) (*planShape, error) {
	root, err := normalizeExpr(cq.Expr)
	if err != nil {
		return nil, err
	}
	// Locate vector leaves: at most one, and only at the root or as a
	// direct child of a root AND (a ranked leaf under OR has no
	// coherent semantics — it scores, it does not filter).
	var vector *Pred
	var filterChildren []*Expr
	countVectors := func(e *Expr) int {
		n := 0
		var walk func(*Expr)
		walk = func(e *Expr) {
			if e.Op == OpLeaf {
				if e.Pred.Vector != nil {
					n++
				}
				return
			}
			for _, c := range e.Children {
				walk(c)
			}
		}
		walk(e)
		return n
	}
	switch {
	case root.Op == OpLeaf && root.Pred.Vector != nil:
		vector = root.Pred
	case root.Op == OpAnd:
		for _, c := range root.Children {
			if c.Op == OpLeaf && c.Pred.Vector != nil {
				if vector != nil {
					return nil, fmt.Errorf("core: at most one vector predicate per query")
				}
				vector = c.Pred
				continue
			}
			if countVectors(c) > 0 {
				return nil, fmt.Errorf("core: vector predicates may appear only at the root or as a direct child of a root AND")
			}
			filterChildren = append(filterChildren, c)
		}
	default:
		if countVectors(root) > 0 {
			return nil, fmt.Errorf("core: vector predicates may appear only at the root or as a direct child of a root AND")
		}
	}
	var filter *Expr
	switch {
	case vector == nil:
		filter = root
	case len(filterChildren) == 1:
		filter = filterChildren[0]
	case len(filterChildren) > 1:
		filter = &Expr{Op: OpAnd, Children: filterChildren}
	}
	if vector != nil && cq.K <= 0 {
		return nil, fmt.Errorf("core: vector queries require K > 0")
	}
	if cq.K < 0 {
		return nil, fmt.Errorf("core: negative K")
	}

	shape := &planShape{root: root, filter: filter, vector: vector, vecPos: -1}

	// Compile the exact leaves in canonical order.
	var compileLeaves func(e *Expr) error
	compileLeaves = func(e *Expr) error {
		if e.Op != OpLeaf {
			for _, c := range e.Children {
				if err := compileLeaves(c); err != nil {
					return err
				}
			}
			return nil
		}
		lp, err := compileLeaf(e.Pred)
		if err != nil {
			return err
		}
		shape.leaves = append(shape.leaves, lp)
		return nil
	}
	if filter != nil {
		if err := compileLeaves(filter); err != nil {
			return nil, err
		}
	}
	for _, lp := range shape.leaves {
		shape.units = append(shape.units, probeUnit{column: lp.pred.Column, kind: lp.kind})
		shape.addColumn(lp.pred.Column)
	}
	if vector != nil {
		shape.vecPos = shape.addColumn(vector.Column)
		shape.units = append(shape.units, probeUnit{column: vector.Column, kind: component.KindIVFPQ})
		shape.nprobe = defaultNProbe(vector.NProbe)
		shape.refine = vector.Refine
		if shape.refine <= 0 {
			shape.refine = 4 * cq.K
		}
		if shape.refine < cq.K {
			shape.refine = cq.K
		}
		shape.maxCands = shape.refine
		if filter != nil {
			// The filter discards candidates before refinement; generate
			// proportionally more so a selective filter still fills K.
			shape.maxCands = shape.refine * 4
		}
		shape.vecProbe = vectorProbeKey(vector.Vector, shape.nprobe, shape.maxCands)
	}

	// Resolve the output column.
	output := cq.Output
	if output == "" {
		if vector != nil {
			output = vector.Column
		} else {
			output = firstLeafColumn(cq.Expr)
		}
	}
	shape.outPos = shape.columnPos(output)
	if shape.outPos < 0 {
		return nil, fmt.Errorf("core: output column %q is not referenced by any predicate", output)
	}
	shape.kernel = shape.compileKernel()
	return shape, nil
}

// columnPos returns the position of the named column in s.columns, or
// -1 when the plan reads no such column.
func (s *planShape) columnPos(name string) int {
	for i, c := range s.columns {
		if c == name {
			return i
		}
	}
	return -1
}

// addColumn returns the named column's position, appending it to
// s.columns when new.
func (s *planShape) addColumn(name string) int {
	pos := s.columnPos(name)
	if pos < 0 {
		pos = len(s.columns)
		s.columns = append(s.columns, name)
	}
	return pos
}

// compileLeaf builds the execution form of one exact leaf.
func compileLeaf(p *Pred) (*leafPlan, error) {
	kind, err := p.kind()
	if err != nil {
		return nil, err
	}
	lp := &leafPlan{pred: p, kind: kind, indexable: true}
	switch {
	case p.UUID != nil:
		key := *p.UUID
		lp.pattern = key[:]
	case p.Substring != nil:
		lp.pattern = p.Substring
	case p.Regex != "":
		lit, err := requiredLiteral(p.Regex)
		if err != nil {
			return nil, fmt.Errorf("core: bad regex: %w", err)
		}
		re, err := compileRegex(p.Regex)
		if err != nil {
			return nil, fmt.Errorf("core: bad regex: %w", err)
		}
		lp.pattern = lit
		lp.indexable = len(lit) >= minRegexLiteral
		lp.re = re
	default:
		return nil, fmt.Errorf("core: vector predicate %q cannot be a filter leaf", p.Column)
	}
	lp.probe = kind.String() + ":" + hex.EncodeToString(lp.pattern)
	return lp, nil
}

// vectorProbeKey is the batcher key of one normalized vector probe.
// It spells each component as eight lowercase hex digits of its bits.
func vectorProbeKey(vec []float32, nprobe, maxCands int) string {
	const digits = "0123456789abcdef"
	b := make([]byte, 0, 24+8*len(vec))
	b = append(b, "v:"...)
	b = strconv.AppendInt(b, int64(nprobe), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(maxCands), 10)
	b = append(b, ':')
	for _, f := range vec {
		bits := math.Float32bits(f)
		for shift := 28; shift >= 0; shift -= 4 {
			b = append(b, digits[bits>>shift&0xf])
		}
	}
	return string(b)
}
