package engine

import (
	"fmt"
	"strings"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// frame binds one table's current row during evaluation. qualifiers holds
// every lowercased spelling that may reference the frame: its alias, bare
// table name, owner.table and db.owner.table.
type frame struct {
	qualifiers []string
	schema     *sqltypes.Schema
	row        sqltypes.Row
}

func (f *frame) matches(q string) bool {
	for _, name := range f.qualifiers {
		if name == q {
			return true
		}
	}
	return false
}

// newFrame builds a frame for a table reference.
func newFrame(ref sqlparse.TableRef, schema *sqltypes.Schema, currentDB string) *frame {
	var quals []string
	if ref.Alias != "" {
		quals = append(quals, strings.ToLower(ref.Alias))
	} else {
		name := ref.Name
		quals = append(quals, strings.ToLower(name.Name()))
		if o := name.Owner(); o != "" {
			quals = append(quals, strings.ToLower(o+"."+name.Name()))
		}
		if d := name.Database(); d != "" {
			quals = append(quals, strings.ToLower(d+"."+name.Owner()+"."+name.Name()))
		} else if name.Owner() != "" && currentDB != "" {
			quals = append(quals, strings.ToLower(currentDB+"."+name.Owner()+"."+name.Name()))
		}
	}
	return &frame{qualifiers: quals, schema: schema}
}

// slot locates a bound column: the value is frames[frame].row[col].
type slot struct{ frame, col int }

// scope is one statement's evaluation environment: its FROM frames and the
// slot of every column reference the bind pass resolved against them. The
// binding lives here, beside the AST, never inside it: procedure and
// trigger bodies are parsed once and shared by every session running them.
// A nil scope has no frames (INSERT VALUES, PRINT, procedure arguments).
type scope struct {
	frames []*frame
	slots  map[*sqlparse.ColumnRef]slot
}

func newScope(frames []*frame) *scope {
	return &scope{frames: frames, slots: make(map[*sqlparse.ColumnRef]slot)}
}

// load points every frame at its row of a joined source row.
func (sc *scope) load(sr sourceRow) {
	for i, f := range sc.frames {
		f.row = sr[i]
	}
}

// isVariable reports whether a column reference names a procedure
// parameter or local variable, which is looked up at evaluation time.
func isVariable(e *sqlparse.ColumnRef) bool { return strings.HasPrefix(e.Name, "@") }

// resolve is the one column resolver: it finds the frame and column a
// reference names, or reports why it names none.
func (sc *scope) resolve(e *sqlparse.ColumnRef) (slot, error) {
	var frames []*frame
	if sc != nil {
		frames = sc.frames
	}
	if len(e.Qualifier.Parts) > 0 {
		q := strings.ToLower(e.Qualifier.String())
		for fi, f := range frames {
			if !f.matches(q) {
				continue
			}
			if ci := f.schema.Index(e.Name); ci >= 0 {
				return slot{fi, ci}, nil
			}
			return slot{}, fmt.Errorf("column %s not found in %s", e.Name, e.Qualifier)
		}
		return slot{}, fmt.Errorf("unknown table or alias %q", e.Qualifier)
	}
	// Unqualified: must match exactly one frame.
	var found slot
	matches := 0
	for fi, f := range frames {
		if ci := f.schema.Index(e.Name); ci >= 0 {
			found = slot{fi, ci}
			matches++
		}
	}
	switch matches {
	case 0:
		return slot{}, fmt.Errorf("unknown column %q", e.Name)
	case 1:
		return found, nil
	default:
		return slot{}, fmt.Errorf("ambiguous column %q", e.Name)
	}
}

// bind resolves every column reference in e, in evaluation order, and
// returns the first resolution error. This is what reports an unknown
// column even when a query matches zero rows, as the original server does
// at compile time. A reference that fails to resolve stays unbound, so
// evaluating it reports the same error.
func (sc *scope) bind(e sqlparse.Expr) error {
	var first error
	visitColumnRefs(e, func(cr *sqlparse.ColumnRef) {
		if isVariable(cr) {
			return
		}
		sl, err := sc.resolve(cr)
		if err != nil {
			if first == nil {
				first = err
			}
			return
		}
		sc.slots[cr] = sl
	})
	return first
}

// visitColumnRefs calls fn on every column reference in e, in the order
// evaluation reaches them.
func visitColumnRefs(e sqlparse.Expr, fn func(*sqlparse.ColumnRef)) {
	switch e := e.(type) {
	case *sqlparse.ColumnRef:
		fn(e)
	case *sqlparse.BinaryExpr:
		visitColumnRefs(e.L, fn)
		visitColumnRefs(e.R, fn)
	case *sqlparse.UnaryExpr:
		visitColumnRefs(e.E, fn)
	case *sqlparse.FuncCall:
		for _, a := range e.Args {
			visitColumnRefs(a, fn)
		}
	case *sqlparse.IsNull:
		visitColumnRefs(e.E, fn)
	case *sqlparse.InList:
		visitColumnRefs(e.E, fn)
		for _, x := range e.List {
			visitColumnRefs(x, fn)
		}
	}
}

// eval evaluates an expression. sc may be nil for standalone expressions
// (INSERT VALUES, PRINT).
func (s *Session) eval(e sqlparse.Expr, sc *scope) (sqltypes.Value, error) {
	switch e := e.(type) {
	case *sqlparse.Literal:
		return e.Value, nil
	case *sqlparse.ColumnRef:
		return s.evalColumnRef(e, sc)
	case *sqlparse.BinaryExpr:
		return s.evalBinary(e, sc)
	case *sqlparse.UnaryExpr:
		return s.evalUnary(e, sc)
	case *sqlparse.FuncCall:
		return s.evalFunc(e, sc)
	case *sqlparse.IsNull:
		v, err := s.eval(e.E, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBit(v.IsNull() != e.Negate), nil
	case *sqlparse.InList:
		return s.evalInList(e, sc)
	default:
		return sqltypes.Null, fmt.Errorf("engine: unsupported expression %T", e)
	}
}

func (s *Session) evalColumnRef(e *sqlparse.ColumnRef, sc *scope) (sqltypes.Value, error) {
	// Procedure parameter / local variable.
	if isVariable(e) {
		if s.vars != nil {
			if v, ok := s.vars[strings.ToLower(e.Name)]; ok {
				return v, nil
			}
		}
		return sqltypes.Null, fmt.Errorf("variable %s is not declared", e.Name)
	}
	if sc != nil {
		if sl, ok := sc.slots[e]; ok {
			return sc.frames[sl.frame].row[sl.col], nil
		}
	}
	sl, err := sc.resolve(e)
	if err != nil {
		return sqltypes.Null, err
	}
	return sc.frames[sl.frame].row[sl.col], nil
}

func (s *Session) evalBinary(e *sqlparse.BinaryExpr, sc *scope) (sqltypes.Value, error) {
	switch e.Op {
	case sqlparse.OpAnd, sqlparse.OpOr:
		return s.evalLogical(e, sc)
	}
	l, err := s.eval(e.L, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	r, err := s.eval(e.R, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	switch e.Op {
	case sqlparse.OpAdd:
		return sqltypes.Arith('+', l, r)
	case sqlparse.OpSub:
		return sqltypes.Arith('-', l, r)
	case sqlparse.OpMul:
		return sqltypes.Arith('*', l, r)
	case sqlparse.OpDiv:
		return sqltypes.Arith('/', l, r)
	case sqlparse.OpMod:
		return sqltypes.Arith('%', l, r)
	case sqlparse.OpLike:
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBit(sqltypes.Like(l.AsString(), r.AsString())), nil
	case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		c, known := l.Compare(r)
		if !known {
			return sqltypes.Null, nil // SQL unknown
		}
		var res bool
		switch e.Op {
		case sqlparse.OpEq:
			res = c == 0
		case sqlparse.OpNe:
			res = c != 0
		case sqlparse.OpLt:
			res = c < 0
		case sqlparse.OpLe:
			res = c <= 0
		case sqlparse.OpGt:
			res = c > 0
		case sqlparse.OpGe:
			res = c >= 0
		}
		return sqltypes.NewBit(res), nil
	default:
		return sqltypes.Null, fmt.Errorf("engine: unsupported operator %q", e.Op)
	}
}

// evalLogical implements AND/OR with three-valued logic and shortcuts.
func (s *Session) evalLogical(e *sqlparse.BinaryExpr, sc *scope) (sqltypes.Value, error) {
	l, err := s.eval(e.L, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	lb, lknown := l.AsBool()
	if e.Op == sqlparse.OpAnd && lknown && !lb {
		return sqltypes.NewBit(false), nil
	}
	if e.Op == sqlparse.OpOr && lknown && lb {
		return sqltypes.NewBit(true), nil
	}
	r, err := s.eval(e.R, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	rb, rknown := r.AsBool()
	if e.Op == sqlparse.OpAnd {
		switch {
		case rknown && !rb:
			return sqltypes.NewBit(false), nil
		case lknown && rknown:
			return sqltypes.NewBit(lb && rb), nil
		default:
			return sqltypes.Null, nil
		}
	}
	switch {
	case rknown && rb:
		return sqltypes.NewBit(true), nil
	case lknown && rknown:
		return sqltypes.NewBit(lb || rb), nil
	default:
		return sqltypes.Null, nil
	}
}

func (s *Session) evalUnary(e *sqlparse.UnaryExpr, sc *scope) (sqltypes.Value, error) {
	v, err := s.eval(e.E, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	switch e.Op {
	case "not":
		b, known := v.AsBool()
		if !known {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBit(!b), nil
	case "-":
		switch v.Kind() {
		case sqltypes.KindInt, sqltypes.KindBit:
			return sqltypes.NewInt(-v.Int()), nil
		case sqltypes.KindFloat:
			return sqltypes.NewFloat(-v.Float()), nil
		case sqltypes.KindNull:
			return sqltypes.Null, nil
		default:
			return sqltypes.Null, fmt.Errorf("cannot negate %s", v.Kind())
		}
	default:
		return sqltypes.Null, fmt.Errorf("engine: unsupported unary %q", e.Op)
	}
}

func (s *Session) evalInList(e *sqlparse.InList, sc *scope) (sqltypes.Value, error) {
	v, err := s.eval(e.E, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	if v.IsNull() {
		return sqltypes.Null, nil
	}
	sawUnknown := false
	for _, item := range e.List {
		iv, err := s.eval(item, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		c, known := v.Compare(iv)
		if !known {
			sawUnknown = true
			continue
		}
		if c == 0 {
			return sqltypes.NewBit(!e.Negate), nil
		}
	}
	if sawUnknown {
		return sqltypes.Null, nil
	}
	return sqltypes.NewBit(e.Negate), nil
}

// aggregateFuncs are handled by the SELECT executor, not here.
var aggregateFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

func (s *Session) evalFunc(e *sqlparse.FuncCall, sc *scope) (sqltypes.Value, error) {
	if aggregateFuncs[e.Name] {
		return sqltypes.Null, fmt.Errorf("aggregate %s() is not valid here", e.Name)
	}
	args := make([]sqltypes.Value, len(e.Args))
	for i, a := range e.Args {
		v, err := s.eval(a, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		args[i] = v
	}
	switch e.Name {
	case "getdate":
		return sqltypes.NewDateTime(s.eng.clock()), nil
	case "user_name", "suser_name":
		return sqltypes.NewString(s.user), nil
	case "db_name":
		return sqltypes.NewString(s.db), nil
	case "len", "char_length", "datalength":
		if err := arity(e, args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewInt(int64(len(args[0].AsString()))), nil
	case "lower":
		if err := arity(e, args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(strings.ToLower(args[0].AsString())), nil
	case "upper":
		if err := arity(e, args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(strings.ToUpper(args[0].AsString())), nil
	case "abs":
		if err := arity(e, args, 1); err != nil {
			return sqltypes.Null, err
		}
		switch args[0].Kind() {
		case sqltypes.KindInt, sqltypes.KindBit:
			n := args[0].Int()
			if n < 0 {
				n = -n
			}
			return sqltypes.NewInt(n), nil
		case sqltypes.KindFloat:
			f := args[0].Float()
			if f < 0 {
				f = -f
			}
			return sqltypes.NewFloat(f), nil
		case sqltypes.KindNull:
			return sqltypes.Null, nil
		default:
			return sqltypes.Null, fmt.Errorf("abs() on %s", args[0].Kind())
		}
	case "isnull":
		// isnull(expr, replacement), the Sybase COALESCE-of-two.
		if err := arity(e, args, 2); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return args[1], nil
		}
		return args[0], nil
	case "convert":
		return sqltypes.Null, fmt.Errorf("convert() requires a type name; use cast-compatible literals instead")
	case "syb_sendmsg":
		return s.evalSendMsg(e, args)
	default:
		return sqltypes.Null, fmt.Errorf("unknown function %q", e.Name)
	}
}

// evalSendMsg implements syb_sendmsg(ip, port, message): send a UDP
// datagram and return 0, matching the Sybase built-in used in Figure 11 of
// the paper to notify the ECA agent's Event Notifier.
func (s *Session) evalSendMsg(e *sqlparse.FuncCall, args []sqltypes.Value) (sqltypes.Value, error) {
	if err := arity(e, args, 3); err != nil {
		return sqltypes.Null, err
	}
	host := args[0].AsString()
	port, ok := args[1].AsInt()
	if !ok {
		return sqltypes.Null, fmt.Errorf("syb_sendmsg: bad port %v", args[1])
	}
	msg := args[2].AsString()
	if err := s.eng.notify(host, int(port), msg); err != nil {
		// As in the original, a lost datagram does not abort the
		// transaction; report failure through the return value.
		return sqltypes.NewInt(1), nil
	}
	return sqltypes.NewInt(0), nil
}

func arity(e *sqlparse.FuncCall, args []sqltypes.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("%s() takes %d arguments, got %d", e.Name, n, len(args))
	}
	return nil
}

// truthy evaluates a predicate expression to a definite boolean (SQL
// unknown counts as false, as in WHERE).
func (s *Session) truthy(e sqlparse.Expr, sc *scope) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := s.eval(e, sc)
	if err != nil {
		return false, err
	}
	b, known := v.AsBool()
	return known && b, nil
}
