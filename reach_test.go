package coopmrm

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllow names the internal/ declarations the reachability gate
// keeps although no program reaches or sets them. Each reason names the
// ROADMAP item that is to give the declaration a caller. An entry that
// neither check would list any more fails the gate, so the list cannot
// go stale.
var reachAllow = map[string]string{
	"fault.RandomCampaign":           "the seeded fault onset and victim draw of scenario variation; keeps poisson and RNG.Float64 reached (ROADMAP item 2)",
	"fault.CampaignConfig":           "RandomCampaign's input; only RandomCampaign reads its fields (ROADMAP item 2)",
	"metrics.Collector.AddTaskUnits": "credits deliveries to the report's task units (ROADMAP item 1)",
	"metrics.Collector.TaskUnits":    "reads the credited deliveries back (ROADMAP item 1)",
	"sim.EventODDExit":               "Def. 1's ODD-exit trigger for the event-log monitors (ROADMAP item 3)",
	"sim.EventODDNearExit":           "Def. 1's near-ODD-exit trigger for the event-log monitors (ROADMAP item 3)",
}

// TestInternalDeclarationsReached fails on every top-level declaration
// under internal/ that no program reaches: a func, method, type, var or
// const that no declaration outside internal/ refers to, directly or
// through other reached declarations. See reachGate for the rules.
func TestInternalDeclarationsReached(t *testing.T) {
	rep := reachRepo(t)
	if len(rep.Unreached) > 0 {
		t.Errorf("%d internal/ declarations are reached by no program; delete them, or allowlist one in reachAllow with a reason and ROADMAP item:\n\t%s",
			len(rep.Unreached), strings.Join(rep.Unreached, "\n\t"))
	}
	if len(rep.Stale) > 0 {
		t.Errorf("reachAllow entries that neither check lists any more; remove them:\n\t%s", strings.Join(rep.Stale, "\n\t"))
	}
}

// TestInternalKnobsSet fails on every exported field of an internal/
// struct that no program writes: a knob no caller sets; and on every
// unexported field that no program reads: state kept for nothing.
func TestInternalKnobsSet(t *testing.T) {
	rep := reachRepo(t)
	if len(rep.Unwritten) > 0 {
		t.Errorf("%d exported internal/ struct fields are written by no program; delete them, or allowlist one in reachAllow with a reason and ROADMAP item:\n\t%s",
			len(rep.Unwritten), strings.Join(rep.Unwritten, "\n\t"))
	}
	if len(rep.Unread) > 0 {
		t.Errorf("%d unexported internal/ struct fields are read by no program; delete them, or allowlist one in reachAllow with a reason and ROADMAP item:\n\t%s",
			len(rep.Unread), strings.Join(rep.Unread, "\n\t"))
	}
}

// TestReachGateFixture pins the gate's whole output on a small module
// that holds one case of each kind it must tell apart.
func TestReachGateFixture(t *testing.T) {
	reachNeedGo(t)
	rep, err := reachGate(map[string]string{
		"lib.Allowed": "dead but allowlisted",
		"lib.Used":    "stale: main reaches it",
	}, filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	want := reachReport{
		Unreached: []string{
			"internal/lib/lib.go:14: lib.Dead (func)",
			"internal/lib/lib.go:16: lib.orphan (type)",
			"internal/lib/lib.go:18: lib.orphan.get (method)",
		},
		Unwritten: []string{
			"internal/lib/lib.go:30: lib.Knob.Unset (field)",
		},
		Unread: []string{
			"internal/lib/lib.go:33: lib.Knob.tested (field)",
			"internal/lib/lib.go:34: lib.Knob.written (field)",
		},
		Stale: []string{"lib.Used"},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("fixture report:\n%#v\nwant:\n%#v", rep, want)
	}
}

// reachReport is what the gate lists, each list in file:line order.
type reachReport struct {
	Unreached []string // "file:line: pkg.Name (kind)"
	Unwritten []string // "file:line: pkg.Type.Field (field)"
	Unread    []string // "file:line: pkg.Type.field (field)"
	Stale     []string // allowlist entries neither check lists
}

var reachCache struct {
	sync.Once
	rep reachReport
	err error
}

func reachNeedGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not on PATH")
	}
}

// reachRepo runs the gate once over this module and perfbench's.
func reachRepo(t *testing.T) reachReport {
	t.Helper()
	reachNeedGo(t)
	reachCache.Do(func() {
		reachCache.rep, reachCache.err = reachGate(reachAllow, ".", "perfbench")
	})
	if reachCache.err != nil {
		t.Fatal(reachCache.err)
	}
	return reachCache.rep
}

// reachPkg is one non-standard package, type-checked from its non-test
// files.
type reachPkg struct {
	internal string // import path below internal/; "" outside internal/
	files    []*ast.File
	info     *types.Info
}

// reachDecl is one top-level declaration: a func, method, type, var or
// const, or a blank var assertion.
type reachDecl struct {
	obj  types.Object // nil for a blank var assertion
	name string       // pkg.Name or pkg.Type.Method
	kind string
	pos  token.Pos
	node ast.Node // the subtree whose references the declaration makes
	pkg  *reachPkg
	root bool
	refs []types.Object
}

// reachGate lists what no program reaches or sets under internal/ in the
// modules rooted at dirs. Positions are relative to dirs[0].
//
// Roots are every declaration outside internal/, init and main funcs,
// blank var assertions and the allowlist. A declaration is reached when
// a reached declaration refers to it. A method is also reached when its
// receiver type is reached and implements some interface type of the
// checked packages (the standard library and error included) that has a
// method of that name, as a call through the interface may run it. A
// field is written by an assignment, ++ or --, &x.f, or a keyed or
// unkeyed composite literal in a reached declaration; structs with json
// tags are skipped, as encoding/json writes them. An unexported field
// is read by any use in a reached declaration other than as the
// operand an assignment, ++ or -- stores to.
func reachGate(allow map[string]string, dirs ...string) (reachReport, error) {
	fset := token.NewFileSet()
	pkgs, ifaces, err := reachLoad(fset, dirs)
	if err != nil {
		return reachReport{}, err
	}
	base, err := filepath.Abs(dirs[0])
	if err != nil {
		return reachReport{}, err
	}
	where := func(pos token.Pos) string {
		p := fset.Position(pos)
		if rel, err := filepath.Rel(base, p.Filename); err == nil {
			p.Filename = filepath.ToSlash(rel)
		}
		return fmt.Sprintf("%s:%d", p.Filename, p.Line)
	}

	var decls []*reachDecl
	declOf := map[types.Object]*reachDecl{}
	for _, p := range pkgs {
		add := func(obj types.Object, kind string, node ast.Node) *reachDecl {
			d := &reachDecl{obj: obj, kind: kind, node: node, pkg: p, root: p.internal == ""}
			if obj != nil {
				d.name, d.pos = p.internal+"."+obj.Name(), obj.Pos()
				declOf[obj] = d
			}
			decls = append(decls, d)
			return d
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[decl.Name].(*types.Func)
					if decl.Recv == nil {
						d := add(obj, "func", decl)
						d.root = d.root || obj.Name() == "init" || obj.Name() == "main"
						continue
					}
					recv := obj.Type().(*types.Signature).Recv().Type()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					tn := recv.(*types.Named).Origin().Obj()
					d := add(obj, "method", decl)
					d.name = p.internal + "." + tn.Name() + "." + obj.Name()
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(p.info.Defs[spec.Name], "type", spec)
						case *ast.ValueSpec:
							kind := "var"
							if decl.Tok == token.CONST {
								kind = "const"
							}
							for _, id := range spec.Names {
								if id.Name == "_" {
									add(nil, kind, spec).root = true
									continue
								}
								add(p.info.Defs[id], kind, spec)
							}
						}
					}
				}
			}
		}
	}
	// viaIface holds, per type, the methods an interface call may run.
	byName := map[string][]*types.Interface{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	viaIface := map[*types.TypeName][]types.Object{}
	for _, d := range decls {
		tn, ok := d.obj.(*types.TypeName)
		if !ok || d.pkg.internal == "" || types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		ms := types.NewMethodSet(ptr)
		done := map[*types.Interface]bool{}
		for i := 0; i < ms.Len(); i++ {
			for _, it := range byName[ms.At(i).Obj().Name()] {
				if done[it] {
					continue
				}
				done[it] = true
				if !types.Implements(ptr, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					m := it.Method(j)
					viaIface[tn] = append(viaIface[tn], reachOrigin(ms.Lookup(m.Pkg(), m.Name()).Obj()))
				}
			}
		}
	}

	for _, d := range decls {
		seen := map[types.Object]bool{}
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := reachOrigin(d.pkg.info.Uses[id]); obj != nil && !seen[obj] {
					seen[obj] = true
					d.refs = append(d.refs, obj)
				}
			}
			return true
		})
	}

	reach := func(withAllow bool) map[*reachDecl]bool {
		reached := map[*reachDecl]bool{}
		var work []*reachDecl
		mark := func(d *reachDecl) {
			if !reached[d] {
				reached[d] = true
				work = append(work, d)
			}
		}
		for _, d := range decls {
			if _, ok := allow[d.name]; d.root || (withAllow && ok) {
				mark(d)
			}
		}
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, obj := range d.refs {
				if rd := declOf[obj]; rd != nil {
					mark(rd)
				}
			}
			if tn, ok := d.obj.(*types.TypeName); ok {
				for _, m := range viaIface[tn] {
					if md := declOf[m]; md != nil {
						mark(md)
					}
				}
			}
		}
		return reached
	}
	unreached := func(reached map[*reachDecl]bool) []*reachDecl {
		var ds []*reachDecl
		for _, d := range decls {
			if !reached[d] {
				ds = append(ds, d)
			}
		}
		sort.SliceStable(ds, func(i, j int) bool { return reachLess(fset, ds[i].pos, ds[j].pos) })
		return ds
	}

	reached := reach(true)
	written, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	for d := range reached {
		reachWrites(d.pkg.info, d.node, written)
		reachReads(d.pkg.info, d.node, read)
	}
	type field struct {
		name   string
		pos    token.Pos
		unread bool
	}
	var fields []field
	for _, d := range decls {
		tn, ok := d.obj.(*types.TypeName)
		if !ok || d.pkg.internal == "" || !reached[d] {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		tagged := reachJSONTagged(st)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Anonymous() || f.Name() == "_" {
				continue
			}
			if f.Exported() && !tagged && !written[f] || !f.Exported() && !read[f] {
				fields = append(fields, field{d.name + "." + f.Name(), f.Pos(), !f.Exported()})
			}
		}
	}
	sort.SliceStable(fields, func(i, j int) bool { return reachLess(fset, fields[i].pos, fields[j].pos) })

	var rep reachReport
	for _, d := range unreached(reached) {
		rep.Unreached = append(rep.Unreached, fmt.Sprintf("%s: %s (%s)", where(d.pos), d.name, d.kind))
	}
	listed := map[string]bool{}
	for _, f := range fields {
		line := fmt.Sprintf("%s: %s (field)", where(f.pos), f.name)
		if e, ok := reachAllowed(allow, f.name); ok {
			listed[e] = true
			continue
		}
		if f.unread {
			rep.Unread = append(rep.Unread, line)
		} else {
			rep.Unwritten = append(rep.Unwritten, line)
		}
	}
	for _, d := range unreached(reach(false)) {
		listed[d.name] = true
	}
	for e := range allow {
		if !listed[e] {
			rep.Stale = append(rep.Stale, e)
		}
	}
	sort.Strings(rep.Stale)
	return rep, nil
}

// reachAllowed reports the allowlist entry naming a field or its struct.
func reachAllowed(allow map[string]string, field string) (string, bool) {
	for e := field; ; {
		if _, ok := allow[e]; ok {
			return e, true
		}
		i := strings.LastIndexByte(e, '.')
		if i < 0 {
			return "", false
		}
		e = e[:i]
	}
}

// reachOrigin maps an instantiated func or field to its declaration.
func reachOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// reachJSONTagged reports whether encoding/json may write the struct.
func reachJSONTagged(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if strings.Contains(st.Tag(i), `json:"`) {
			return true
		}
	}
	return false
}

// reachWrites marks every field the subtree writes.
func reachWrites(info *types.Info, node ast.Node, written map[*types.Var]bool) {
	mark := func(e ast.Expr) {
		for e != nil {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if f, ok := info.Uses[x.Sel].(*types.Var); ok && f.IsField() {
					written[f.Origin()] = true
				}
				e = x.X
			default:
				e = nil
			}
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.RangeStmt:
			mark(n.Key)
			mark(n.Value)
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						written[f.Origin()] = true
					}
				} else {
					written[st.Field(i).Origin()] = true
				}
			}
		}
		return true
	})
}

// reachReads marks every field the subtree reads: every use of a field
// except as the operand an assignment, ++ or -- stores to.
func reachReads(info *types.Info, node ast.Node, read map[*types.Var]bool) {
	stored := map[*ast.Ident]bool{}
	store := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			stored[sel.Sel] = true
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				store(lhs)
			}
		case *ast.IncDecStmt:
			store(n.X)
		case *ast.SelectorExpr:
			if f, ok := info.Uses[n.Sel].(*types.Var); ok && f.IsField() && !stored[n.Sel] {
				read[f.Origin()] = true
			}
		}
		return true
	})
}

func reachLess(fset *token.FileSet, a, b token.Pos) bool {
	pa, pb := fset.Position(a), fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}

// reachLoad lists each module's packages with their dependencies, once
// per module, imports the standard library from the export data the
// listing names and type-checks every other package from its non-test
// files in dependency order. It also returns every interface type with
// methods in the checked packages: error, the standard library's named
// interfaces and every interface type in the source.
func reachLoad(fset *token.FileSet, dirs []string) ([]*reachPkg, []*types.Interface, error) {
	type listed struct {
		path, dir, export string
		std               bool
		files             []string
	}
	var order []listed
	seen := map[string]bool{}
	exports := map[string]string{}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-export",
			"-f", "{{.ImportPath}}\t{{.Standard}}\t{{.Export}}\t{{.Dir}}\t{{join .GoFiles \"\\t\"}}", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			f := strings.Split(sc.Text(), "\t")
			l := listed{path: f[0], std: f[1] == "true", export: f[2], dir: f[3]}
			if f[4] != "" {
				l.files = f[4:]
			}
			if seen[l.path] {
				continue
			}
			seen[l.path] = true
			if l.export != "" {
				exports[l.path] = l.export
			}
			order = append(order, l)
		}
	}

	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	src := map[string]*types.Package{}
	imp := reachImporter{src: src, std: std}
	var pkgs []*reachPkg
	for _, l := range order {
		if l.std {
			if l.path == "unsafe" {
				continue
			}
			p, err := std.Import(l.path)
			if err != nil {
				return nil, nil, err
			}
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
			continue
		}
		p := &reachPkg{info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		if i := strings.Index(l.path+"/", "/internal/"); i >= 0 {
			p.internal = strings.TrimSuffix(l.path[i+len("/internal/"):], "/")
		}
		for _, name := range l.files {
			f, err := parser.ParseFile(fset, filepath.Join(l.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			p.files = append(p.files, f)
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(l.path, fset, p.files, p.info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-check %s: %v", l.path, err)
		}
		src[l.path] = tp
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addIface(p.info.TypeOf(it))
				}
				return true
			})
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, ifaces, nil
}

// reachImporter resolves the packages checked from source first and the
// standard library from export data.
type reachImporter struct {
	src map[string]*types.Package
	std types.Importer
}

func (r reachImporter) Import(path string) (*types.Package, error) {
	if p, ok := r.src[path]; ok {
		return p, nil
	}
	return r.std.Import(path)
}
