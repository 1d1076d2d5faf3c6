// Package iodeadline requires a reachable deadline before blocking conn
// I/O in the transport packages. A read or write on a net.Conn with no
// deadline blocks forever when the peer wedges: the sync-replication
// sender hangs mid-epoch, the ack drain never notices the standby died,
// and failover stalls on a TCP stack that will not time out for hours.
// PR 6's chaos suite catches this probabilistically; the analyzer makes
// it mechanical.
//
// The check is flow-sensitive: a blocking operation on conn value X
// needs a matching-direction deadline call on X — SetReadDeadline for
// reads, SetWriteDeadline for writes, SetDeadline for either — in a
// block from which the operation is reachable (or earlier in the same
// block). "Blocking operation" covers direct Read/Write-family method
// calls on conn-typed values (anything with a SetDeadline method, save
// *os.File), I/O through a bufio.Reader/Writer derived from a conn in
// the same function, and calls to helpers known to block on a conn
// argument.
//
// Helpers are known through two facts, computed for every package and
// fixpointed within one: a function that performs unsatisfied blocking
// I/O on a conn parameter exports "blocks" (read/write/both) — its
// callers inherit the obligation; a function that sets a deadline on a
// conn parameter exports "deadlines" — calling it counts as setting the
// deadline. That is how a shared prepareConn helper satisfies the rule
// at every call site.
//
// Known limit: facts attach only to conn-typed parameters. A helper that
// takes an io.Reader or io.Writer exports no fact, so passing a conn to it
// is not a blocking operation here. internal/server's serveConn hands its
// conn to tds.ReadPacket and tds.WriteResults, which take io.Reader and
// io.Writer, and passes unreported with no deadline and no waiver. A
// bufio reader derived from that conn would be reported at the call, as
// any derived reader is. The fixture's ioHelperRead pins the limit.
//
// Deliberately idle endpoints (a session reader between client
// commands, a UDP listener) carry //ecavet:allow iodeadline waivers
// naming the unblocking mechanism (usually: Close() on shutdown).
package iodeadline

import (
	"go/ast"
	"go/types"

	"github.com/activedb/ecaagent/internal/analysis"
	"github.com/activedb/ecaagent/internal/analysis/cfg"
)

// ConnPackages lists the transport packages under enforcement. Exported
// so fixture tests can temporarily extend it.
var ConnPackages = []string{
	"github.com/activedb/ecaagent/internal/cluster",
	"github.com/activedb/ecaagent/internal/server",
}

// Analyzer is the iodeadline pass.
var Analyzer = &analysis.Analyzer{
	Name: "iodeadline",
	Doc:  "blocking conn reads/writes in the transport packages need a reachable SetDeadline",
	Run:  run,
}

// Direction bitmask.
const (
	dirRead = 1 << iota
	dirWrite
)

func dirString(d int) string {
	switch d {
	case dirRead:
		return "read"
	case dirWrite:
		return "write"
	default:
		return "both"
	}
}

func parseDir(s string) int {
	switch s {
	case "read":
		return dirRead
	case "write":
		return dirWrite
	default:
		return dirRead | dirWrite
	}
}

var readMethods = map[string]bool{
	"Read": true, "ReadFrom": true, "ReadFromUDP": true, "ReadMsgUDP": true,
}
var writeMethods = map[string]bool{
	"Write": true, "WriteTo": true, "WriteToUDP": true, "WriteMsgUDP": true,
}

func run(pass *analysis.Pass) error {
	targeted := analysis.PackageTargeted(pass.Pkg.Path(), ConnPackages)

	// Fixpoint: helper facts computed in one round enable call-site
	// detection in the next (WriteResults → WritePacket → conn.Write).
	// Reports are emitted only on the final, stable round. The "blocks"
	// obligation is exported only from untargeted packages: in a targeted
	// one the operation is reported at its own site (and fixed or waived
	// there), so propagating it to callers would demand two waivers for
	// one decision.
	for {
		before := pass.Facts.Len()
		analyzeAll(pass, false, !targeted)
		if pass.Facts.Len() == before {
			break
		}
	}
	if targeted {
		analyzeAll(pass, true, false)
	}
	return nil
}

// analyzeAll runs the per-function analysis over every function in the
// package, exporting helper facts; when report is set it also emits
// diagnostics for unsatisfied operations.
func analyzeAll(pass *analysis.Pass, report, exportBlocks bool) {
	analysis.WalkFunctions(pass.Files, func(n ast.Node, _ []ast.Node) {
		var body *ast.BlockStmt
		var params *ast.FieldList
		var declObj types.Object
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body, params = fn.Body, fn.Type.Params
			declObj = pass.TypesInfo.Defs[fn.Name]
		case *ast.FuncLit:
			body, params = fn.Body, fn.Type.Params
		default:
			return
		}
		if body == nil || pass.InTestFile(body.Pos()) {
			return
		}
		analyzeFunc(pass, body, params, declObj, report, exportBlocks)
	})
}

// event is a deadline-setting site; op is a blocking I/O site.
type event struct {
	expr  string // rendering of the conn value
	dir   int
	block *cfg.Block
	idx   int
}

type op struct {
	expr  string
	dir   int
	block *cfg.Block
	idx   int
	pos   ast.Node
	desc  string
}

func analyzeFunc(pass *analysis.Pass, body *ast.BlockStmt, params *ast.FieldList, declObj types.Object, report, exportBlocks bool) {
	g := cfg.New(body)

	// Conn-derived bufio aliases: object of r in `r := bufio.NewReader(conn)`
	// → (rendered conn, direction).
	type alias struct {
		expr string
		dir  int
	}
	aliases := map[types.Object]alias{}
	g.Visit(func(_ *cfg.Block, _ int, n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok || pkgID.Name != "bufio" {
			return
		}
		var dir int
		switch sel.Sel.Name {
		case "NewReader", "NewReaderSize":
			dir = dirRead
		case "NewWriter", "NewWriterSize":
			dir = dirWrite
		default:
			return
		}
		src := call.Args[0]
		if !connish(pass, src) {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj != nil {
			aliases[obj] = alias{types.ExprString(src), dir}
		}
	})

	var events []event
	var ops []op
	g.Visit(func(b *cfg.Block, i int, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		// Direct method calls: X.SetDeadline / X.Read / alias.ReadByte...
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			name := sel.Sel.Name
			if connish(pass, sel.X) {
				xs := types.ExprString(sel.X)
				switch name {
				case "SetDeadline":
					events = append(events, event{xs, dirRead | dirWrite, b, i})
					return
				case "SetReadDeadline":
					events = append(events, event{xs, dirRead, b, i})
					return
				case "SetWriteDeadline":
					events = append(events, event{xs, dirWrite, b, i})
					return
				}
				switch {
				case readMethods[name]:
					ops = append(ops, op{xs, dirRead, b, i, call, name + " on " + xs})
					return
				case writeMethods[name]:
					ops = append(ops, op{xs, dirWrite, b, i, call, name + " on " + xs})
					return
				}
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if a, ok := aliases[pass.TypesInfo.Uses[id]]; ok && sel.X != nil {
					// Any method on a conn-derived bufio value blocks in
					// the alias's direction (Flush, Read, ReadByte, ...).
					ops = append(ops, op{a.expr, a.dir, b, i, call, name + " via " + id.Name + " on " + a.expr})
					return
				}
			}
		}
		// Calls to fact-carrying helpers, and calls passing an alias.
		callee := calleeObj(pass, call)
		var blocksDir, deadlinesDir int
		if callee != nil {
			if v, ok := pass.LookupFact(callee, "blocks"); ok {
				blocksDir = parseDir(v)
			}
			if v, ok := pass.LookupFact(callee, "deadlines"); ok {
				deadlinesDir = parseDir(v)
			}
		}
		for _, arg := range call.Args {
			if connish(pass, arg) {
				xs := types.ExprString(arg)
				if deadlinesDir != 0 {
					events = append(events, event{xs, deadlinesDir, b, i})
				}
				if blocksDir != 0 {
					ops = append(ops, op{xs, blocksDir, b, i, call,
						calleeName(call) + "(" + xs + ")"})
				}
				continue
			}
			if id, ok := arg.(*ast.Ident); ok {
				if a, ok := aliases[pass.TypesInfo.Uses[id]]; ok {
					ops = append(ops, op{a.expr, a.dir, b, i, call,
						calleeName(call) + "(" + id.Name + ") on " + a.expr})
				}
			}
		}
	})

	if len(ops) == 0 {
		if declObj != nil {
			exportDeadlineFact(pass, declObj, params, events)
		}
		return
	}

	// Reachability from each event block, lazily.
	reach := map[*cfg.Block]map[*cfg.Block]bool{}
	satisfied := func(o op) bool {
		for _, e := range events {
			if e.expr != o.expr || e.dir&o.dir == 0 {
				continue
			}
			if e.block == o.block && e.idx <= o.idx {
				return true
			}
			r, ok := reach[e.block]
			if !ok {
				r = g.ReachableFrom(e.block)
				reach[e.block] = r
			}
			if r[o.block] {
				return true
			}
		}
		return false
	}

	paramSet := paramObjects(pass, params)
	var blocksDirs int
	for _, o := range ops {
		if satisfied(o) {
			continue
		}
		if _, ok := paramRoot(o.expr, paramSet); ok {
			// The caller owns the deadline for a conn parameter the
			// function itself never deadlines: export the obligation.
			blocksDirs |= o.dir
		}
		if report {
			pass.Reportf(o.pos.Pos(),
				"blocking %s: %s has no reachable Set%sDeadline on %s — set one, or waive with //ecavet:allow iodeadline <reason>",
				dirString(o.dir), o.desc, deadlineName(o.dir), o.expr)
		}
	}
	if declObj != nil {
		if exportBlocks && blocksDirs != 0 {
			pass.ExportFact(declObj, "blocks", dirString(blocksDirs))
		}
		exportDeadlineFact(pass, declObj, params, events)
	}
}

func deadlineName(dir int) string {
	switch dir {
	case dirRead:
		return "Read"
	case dirWrite:
		return "Write"
	default:
		return ""
	}
}

// exportDeadlineFact publishes "deadlines" when the function sets a
// deadline on one of its own conn parameters — calling it then counts
// as setting the deadline at every call site.
func exportDeadlineFact(pass *analysis.Pass, declObj types.Object, params *ast.FieldList, events []event) {
	paramSet := paramObjects(pass, params)
	var dirs int
	for _, e := range events {
		if _, ok := paramRoot(e.expr, paramSet); ok {
			dirs |= e.dir
		}
	}
	if dirs != 0 {
		pass.ExportFact(declObj, "deadlines", dirString(dirs))
	}
}

// paramObjects renders the function's parameter names.
func paramObjects(pass *analysis.Pass, params *ast.FieldList) map[string]bool {
	set := map[string]bool{}
	if params == nil {
		return set
	}
	for _, f := range params.List {
		for _, name := range f.Names {
			set[name.Name] = true
		}
	}
	return set
}

// paramRoot reports whether the rendered conn expression is (or roots
// at) a function parameter: "conn" or "conn.something".
func paramRoot(expr string, params map[string]bool) (string, bool) {
	root := expr
	for i := 0; i < len(expr); i++ {
		if expr[i] == '.' || expr[i] == '[' {
			root = expr[:i]
			break
		}
	}
	if params[root] {
		return root, true
	}
	return "", false
}

// connish reports whether e's type carries a SetDeadline method — the
// marker for deadline-capable endpoints (net.Conn implementations and
// the net.Conn interface itself). *os.File also has one, but file I/O
// deadlines are exotic and the durable path owns files — excluded.
func connish(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if named := namedOf(t); named != nil {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File" {
			return false
		}
	}
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		if m, _, _ := types.LookupFieldOrMethod(typ, true, nil, "SetDeadline"); m != nil {
			if _, ok := m.(*types.Func); ok {
				return true
			}
		}
	}
	return false
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// calleeObj resolves the called function's object, for fact lookup.
func calleeObj(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}
