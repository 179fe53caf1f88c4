package sqlparse

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"indextune/internal/schema"
	"indextune/internal/stats"
	"indextune/internal/workload"
)

// Selectivity defaults for predicates the statistics cannot estimate.
const (
	// rangeSelectivity is assigned to range predicates when no histogram is
	// available.
	rangeSelectivity = 0.3
	// selectivityFloor bounds every selectivity from below.
	selectivityFloor = 1e-9
)

// Parse parses a single SELECT statement against db and returns the logical
// query. The query ID is taken from the id argument. cat, when non-nil,
// supplies per-column histograms: predicates with numeric literals receive
// data-dependent selectivity estimates instead of the defaults.
func Parse(db *schema.Database, id, sql string, cat *stats.Catalog) (*workload.Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{db: db, toks: toks, cat: cat}
	q, err := p.parseSelect()
	if err != nil {
		return nil, fmt.Errorf("sqlparse: %w", err)
	}
	q.ID = id
	q.SQL = sql
	return q, nil
}

type columnRef struct {
	qualifier string // table name or alias; may be empty
	column    string
}

type parser struct {
	db   *schema.Database
	toks []token
	pos  int
	cat  *stats.Catalog

	aliases   map[string]string // alias -> table name
	refOrder  []string          // alias order
	refIndex  map[string]int    // alias -> ref index
	q         *workload.Query
	needSets  []map[string]bool
	selectAll bool
	projList  []columnRef
}

func (p *parser) peek() token   { return p.toks[p.pos] }
func (p *parser) next() token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool   { return p.peek().kind == tokEOF }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(m int) { p.pos = m }

func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return fmt.Errorf("expected %s near offset %d", kw, p.peek().pos)
	}
	return nil
}

func (p *parser) symbol(s string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) parseSelect() (*workload.Query, error) {
	p.q = &workload.Query{}
	p.aliases = make(map[string]string)
	p.refIndex = make(map[string]int)

	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if err := p.parseProjection(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if err := p.parseFrom(); err != nil {
		return nil, err
	}
	if p.keyword("WHERE") {
		if err := p.parsePredicates(); err != nil {
			return nil, err
		}
	}
	if p.keyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if err := p.parseSortCols(); err != nil {
			return nil, err
		}
	}
	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if err := p.parseSortCols(); err != nil {
			return nil, err
		}
	}
	p.symbol(";")
	if !p.atEOF() {
		return nil, fmt.Errorf("trailing input near offset %d", p.peek().pos)
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return p.q, nil
}

func (p *parser) parseProjection() error {
	if p.symbol("*") {
		p.selectAll = true
		return nil
	}
	for {
		cr, err := p.parseColumnRefAllowingAgg()
		if err != nil {
			return err
		}
		if cr != nil {
			p.projList = append(p.projList, *cr)
		}
		if !p.symbol(",") {
			return nil
		}
	}
}

// parseColumnRefAllowingAgg parses either a bare column reference or an
// aggregate such as SUM(t.c) / COUNT(*), returning the inner column (nil for
// COUNT(*)).
func (p *parser) parseColumnRefAllowingAgg() (*columnRef, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("expected column near offset %d", t.pos)
	}
	switch strings.ToUpper(t.text) {
	case "SUM", "AVG", "MIN", "MAX", "COUNT":
		p.next()
		if !p.symbol("(") {
			return nil, fmt.Errorf("expected ( after aggregate near offset %d", t.pos)
		}
		if p.symbol("*") {
			if !p.symbol(")") {
				return nil, fmt.Errorf("expected ) near offset %d", p.peek().pos)
			}
			return nil, nil
		}
		cr, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		if !p.symbol(")") {
			return nil, fmt.Errorf("expected ) near offset %d", p.peek().pos)
		}
		return cr, nil
	}
	return p.parseColumnRef()
}

func (p *parser) parseColumnRef() (*columnRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("expected identifier near offset %d", t.pos)
	}
	if p.symbol(".") {
		col := p.next()
		if col.kind != tokIdent {
			return nil, fmt.Errorf("expected column after %s. near offset %d", t.text, col.pos)
		}
		return &columnRef{qualifier: t.text, column: col.text}, nil
	}
	return &columnRef{column: t.text}, nil
}

func (p *parser) parseFrom() error {
	if err := p.parseTableRef(); err != nil {
		return err
	}
	for {
		switch {
		case p.symbol(","):
			if err := p.parseTableRef(); err != nil {
				return err
			}
		case p.peekKeyword("JOIN") || p.peekKeyword("INNER"):
			p.keyword("INNER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return err
			}
			if err := p.parseTableRef(); err != nil {
				return err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return err
			}
			if err := p.parseOnePredicate(); err != nil {
				return err
			}
			for p.keyword("AND") {
				if err := p.parseOnePredicate(); err != nil {
					return err
				}
			}
		default:
			return nil
		}
	}
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) parseTableRef() error {
	t := p.next()
	if t.kind != tokIdent {
		return fmt.Errorf("expected table name near offset %d", t.pos)
	}
	table := t.text
	if p.db.Table(table) == nil {
		return fmt.Errorf("unknown table %q", table)
	}
	alias := table
	p.keyword("AS")
	nt := p.peek()
	if nt.kind == tokIdent && !reserved(nt.text) {
		alias = p.next().text
	}
	if _, dup := p.aliases[alias]; dup {
		return fmt.Errorf("duplicate table alias %q", alias)
	}
	p.aliases[alias] = table
	p.refIndex[alias] = len(p.refOrder)
	p.refOrder = append(p.refOrder, alias)
	p.q.Refs = append(p.q.Refs, workload.TableRef{Table: table})
	p.needSets = append(p.needSets, make(map[string]bool))
	return nil
}

func reserved(s string) bool {
	switch strings.ToUpper(s) {
	case "WHERE", "GROUP", "ORDER", "JOIN", "INNER", "ON", "AND", "AS", "BY":
		return true
	}
	return false
}

func (p *parser) parsePredicates() error {
	if err := p.parseOnePredicate(); err != nil {
		return err
	}
	for p.keyword("AND") {
		if err := p.parseOnePredicate(); err != nil {
			return err
		}
	}
	return nil
}

// parseOnePredicate handles col OP const, col = col (join), and
// col BETWEEN a AND b.
func (p *parser) parseOnePredicate() error {
	left, err := p.parseColumnRef()
	if err != nil {
		return err
	}
	li, lcol, err := p.resolve(*left)
	if err != nil {
		return err
	}
	if p.keyword("BETWEEN") {
		lo, loNum, err := p.consumeLiteral()
		if err != nil {
			return err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return err
		}
		hi, hiNum, err := p.consumeLiteral()
		if err != nil {
			return err
		}
		sel := rangeSelectivity
		if loNum && hiNum {
			if h := p.histogram(li, lcol); h != nil {
				sel = h.SelectivityBetween(lo, hi)
			}
		}
		p.addFilterSel(li, lcol, workload.OpRange, sel)
		return nil
	}
	opTok := p.next()
	if opTok.kind != tokSymbol {
		return fmt.Errorf("expected comparison operator near offset %d", opTok.pos)
	}
	var op workload.PredOp
	switch opTok.text {
	case "=":
		op = workload.OpEquality
	case "<", ">", "<=", ">=", "<>", "!=":
		op = workload.OpRange
	default:
		return fmt.Errorf("unsupported operator %q near offset %d", opTok.text, opTok.pos)
	}
	rhs := p.peek()
	if rhs.kind == tokIdent {
		// Possible join predicate: col = col.
		mark := p.save()
		right, err := p.parseColumnRef()
		if err != nil {
			return err
		}
		ri, rcol, rerr := p.resolve(*right)
		if rerr == nil {
			if op != workload.OpEquality {
				return fmt.Errorf("only equi-joins are supported near offset %d", opTok.pos)
			}
			p.addJoin(li, lcol, ri, rcol)
			return nil
		}
		p.restore(mark)
		return fmt.Errorf("cannot resolve column %s near offset %d", right.column, rhs.pos)
	}
	v, numeric, err := p.consumeLiteral()
	if err != nil {
		return err
	}
	sel := -1.0
	if numeric {
		if h := p.histogram(li, lcol); h != nil {
			switch opTok.text {
			case "=":
				sel = h.SelectivityEq(v)
			case "<", "<=":
				sel = h.SelectivityLess(v)
			case ">", ">=":
				sel = h.SelectivityGreater(v)
			case "<>", "!=":
				sel = 1 - h.SelectivityEq(v)
			}
		}
	}
	if sel >= 0 {
		p.addFilterSel(li, lcol, op, sel)
	} else {
		p.addFilter(li, lcol, op)
	}
	return nil
}

// histogram looks up the histogram for a resolved (ref, column) pair.
func (p *parser) histogram(ref int, col string) *stats.Histogram {
	if p.cat == nil {
		return nil
	}
	return p.cat.Get(p.q.Refs[ref].Table, col)
}

// consumeLiteral consumes a literal, returning its numeric value when it is
// a number (possibly signed).
func (p *parser) consumeLiteral() (value float64, numeric bool, err error) {
	t := p.next()
	switch {
	case t.kind == tokNumber:
		v, perr := strconv.ParseFloat(t.text, 64)
		if perr != nil {
			return 0, false, fmt.Errorf("bad number %q near offset %d", t.text, t.pos)
		}
		return v, true, nil
	case t.kind == tokString:
		return 0, false, nil
	case t.kind == tokSymbol && (t.text == "-" || t.text == "+"):
		n := p.next()
		if n.kind == tokNumber {
			v, perr := strconv.ParseFloat(n.text, 64)
			if perr != nil {
				return 0, false, fmt.Errorf("bad number %q near offset %d", n.text, n.pos)
			}
			if t.text == "-" {
				v = -v
			}
			return v, true, nil
		}
	}
	return 0, false, fmt.Errorf("expected literal near offset %d", t.pos)
}

// addFilter records a predicate using the default selectivity model (1/NDV
// for equality, rangeSelectivity for ranges).
func (p *parser) addFilter(ref int, col string, op workload.PredOp) {
	r := &p.q.Refs[ref]
	sel := rangeSelectivity
	if op == workload.OpEquality {
		t := p.db.Table(r.Table)
		sel = 0.1
		if c := t.Column(col); c != nil && c.NDV > 0 {
			sel = 1 / float64(c.NDV)
		}
	}
	p.addFilterSel(ref, col, op, sel)
}

// addFilterSel records a predicate with an explicit selectivity estimate.
func (p *parser) addFilterSel(ref int, col string, op workload.PredOp, sel float64) {
	if sel < selectivityFloor {
		sel = selectivityFloor
	}
	if sel > 1 {
		sel = 1
	}
	r := &p.q.Refs[ref]
	r.Filters = append(r.Filters, workload.Predicate{Column: col, Op: op, Selectivity: sel})
	p.needSets[ref][col] = true
}

func (p *parser) addJoin(li int, lcol string, ri int, rcol string) {
	p.q.Joins = append(p.q.Joins, workload.JoinPred{LeftRef: li, LeftCol: lcol, RightRef: ri, RightCol: rcol})
	p.q.Refs[li].JoinCols = appendUnique(p.q.Refs[li].JoinCols, lcol)
	p.q.Refs[ri].JoinCols = appendUnique(p.q.Refs[ri].JoinCols, rcol)
	p.needSets[li][lcol] = true
	p.needSets[ri][rcol] = true
}

// resolve maps a possibly-unqualified column reference to (ref index,
// column name).
func (p *parser) resolve(cr columnRef) (int, string, error) {
	if cr.qualifier != "" {
		alias := cr.qualifier
		table, ok := p.aliases[alias]
		if !ok {
			return 0, "", fmt.Errorf("unknown table alias %q", alias)
		}
		if !p.db.Table(table).HasColumn(cr.column) {
			return 0, "", fmt.Errorf("table %q has no column %q", table, cr.column)
		}
		return p.refIndex[alias], cr.column, nil
	}
	found := -1
	for i, alias := range p.refOrder {
		if p.db.Table(p.aliases[alias]).HasColumn(cr.column) {
			if found >= 0 {
				return 0, "", fmt.Errorf("ambiguous column %q", cr.column)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, "", fmt.Errorf("unknown column %q", cr.column)
	}
	return found, cr.column, nil
}

func (p *parser) parseSortCols() error {
	for {
		cr, err := p.parseColumnRef()
		if err != nil {
			return err
		}
		ri, col, err := p.resolve(*cr)
		if err != nil {
			return err
		}
		// DESC/ASC modifiers are accepted and ignored.
		if !p.keyword("DESC") {
			p.keyword("ASC")
		}
		p.q.Refs[ri].SortCols = appendUnique(p.q.Refs[ri].SortCols, col)
		p.needSets[ri][col] = true
		if !p.symbol(",") {
			return nil
		}
	}
}

// finish resolves the projection list into per-ref Need sets.
func (p *parser) finish() error {
	if p.selectAll {
		for i := range p.q.Refs {
			t := p.db.Table(p.q.Refs[i].Table)
			for _, c := range t.Columns {
				p.needSets[i][c.Name] = true
			}
		}
	}
	for _, cr := range p.projList {
		ri, col, err := p.resolve(cr)
		if err != nil {
			return err
		}
		p.needSets[ri][col] = true
	}
	for i := range p.q.Refs {
		p.q.Refs[i].Need = sortedKeys(p.needSets[i])
	}
	return nil
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
