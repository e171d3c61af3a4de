package neat_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachableOnlyFromTests lists the exported functions and methods outside
// benchmark/ that no other non-test file names, kept on purpose, each with
// the reason. Everything else exported must be reached from a file other
// than its own — a campaign, a CLI, an example, the facade, another package
// or the benchmark — or be deleted.
var reachableOnlyFromTests = map[string]string{
	// Features that only tests drive today.
	"internal/app.NewDNSServer":       "the only UDP server; the DNS and baseline UDP tests run it until a campaign does",
	"internal/app.NewDNSClient":       "the only UDP client; the DNS and baseline UDP tests run it until a campaign does",
	"internal/core.System.Quarantine": "the operator's manual fence; the drop-all and fault-injection tests call it",

	// Test harness API: fault hooks, stepping, frame builders, instruments.
	"internal/sim.Proc.SetDropRate":  "the lossy-channel fault hook of the ownership and watchdog tests",
	"internal/sim.Simulator.Drain":   "runs a test simulation to quiescence",
	"internal/sim.Simulator.Step":    "single-steps a test simulation",
	"internal/sim.Simulator.Idle":    "tests check that a run left no events behind",
	"internal/bufpool.Ref.Retain":    "part of the slab refcount contract; the ownership property test models shared holders with it",
	"internal/proto.BuildICMP":       "builds the ICMP frames of the proto and ipeng tests",
	"internal/proto.BuildUDP":        "builds the UDP frames of the proto, ipeng and udpeng tests",
	"internal/metrics.Counter.Set":   "instrument API the registry tests exercise",
	"internal/metrics.Gauge.Set":     "instrument API the registry tests exercise",
	"internal/metrics.Histogram.Max": "instrument API the metrics and watchdog tests read",

	// Accessors tests read to observe state.
	"internal/faultinject.Injector.Injected": "read by the fault-injection tests",
	"internal/nicdev.NIC.RSSQueues":          "read by the drop-all quarantine test",
	"internal/sim.Simulator.Machines":        "read by the stack and nicdev tests",
	"internal/testbed.FarmMember.Alive":      "read by the cluster failover test",
}

// settableOnlyFromTests lists the fields of settings types (see isSettings)
// that no non-test file but the declaring one sets, kept on purpose, each
// with the reason. Any other such field is a constant in disguise.
var settableOnlyFromTests = map[string]string{
	"internal/testbed.NEaTConfig.DisableFlowFilters": "the pure-RSS side of the paper's flow-director ablation; BenchmarkAblationFlowDirectorVsRSS sets it",
}

// TestEveryExportIsReachable fails on an exported function or method whose
// name appears in no non-test Go file but its own, on a settings field (see
// isSettings) that no non-test Go file but its own sets, and on an allowlist
// entry that no longer exists or has gained such a caller or setter.
// Matching is by name, so it errs towards "reachable": any identifier or
// set field with the same name elsewhere counts.
func TestEveryExportIsReachable(t *testing.T) {
	fset := token.NewFileSet()
	// named[name] is the set of non-test files holding an identifier name.
	named := map[string]map[string]bool{}
	// set[name] is the set of non-test files that set a field called name.
	set := map[string]map[string]bool{}
	var exports, fields []export
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if path != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") ||
				base == "testdata" || path == filepath.Join("benchmark", "out")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if named[id.Name] == nil {
					named[id.Name] = map[string]bool{}
				}
				named[id.Name][path] = true
			}
			for _, name := range fieldsSet(n) {
				if set[name] == nil {
					set[name] = map[string]bool{}
				}
				set[name][path] = true
			}
			return true
		})
		if strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) {
			return nil // callers only: benchmark/ is not this repo's API
		}
		pkg := filepath.ToSlash(filepath.Dir(path)) + "."
		if pkg == ".." {
			pkg = "neat."
		}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !isSettings(pkg, ts.Name.Name) {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if id.IsExported() {
								fields = append(fields, export{key: pkg + ts.Name.Name + "." + id.Name, name: id.Name, file: path})
							}
						}
					}
				}
			}
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := pkg
			if fn.Recv != nil {
				key += recvType(fn.Recv.List[0].Type) + "."
			}
			key += fn.Name.Name
			exports = append(exports, export{key: key, name: fn.Name.Name, file: path})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	checkClause(t, exports, named, reachableOnlyFromTests,
		"exported, but no other non-test file names it; wire it into something a user runs, delete it, or allowlist it with a reason",
		"is on the allowlist but another non-test file now names it; drop the entry",
		"names no exported function or method; drop it")
	checkClause(t, fields, set, settableOnlyFromTests,
		"a setting no other non-test file sets; make it a constant, delete it, or allowlist it with a reason",
		"is on the field allowlist but another non-test file now sets it; drop the entry",
		"names no settings field; drop it")
}

// export is one checked declaration: its allowlist key, the identifier
// other files must use, and the declaring file.
type export struct{ key, name, file string }

// checkClause fails on each item whose name no file but its own has in
// files (unless allow lists it), on each allowlisted item that another
// file now reaches, and on each allowlist entry that names no item.
func checkClause(t *testing.T, items []export, files map[string]map[string]bool, allow map[string]string,
	unreachedMsg, reachedMsg, goneMsg string) {
	t.Helper()
	declared := map[string]bool{}
	var unreached []string
	for _, e := range items {
		declared[e.key] = true
		reached := false
		for file := range files[e.name] {
			if file != e.file {
				reached = true
				break
			}
		}
		_, allowed := allow[e.key]
		switch {
		case !reached && !allowed:
			unreached = append(unreached, e.key+" ("+filepath.ToSlash(e.file)+")")
		case reached && allowed:
			t.Errorf("%s %s", e.key, reachedMsg)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s: %s", u, unreachedMsg)
	}
	for key := range allow {
		if !declared[key] {
			t.Errorf("allowlist entry %s %s", key, goneMsg)
		}
	}
}

// isSettings reports whether the exported struct type name of package pkg
// (as "dir.") holds settings the field clause checks: a name ending in
// Config, Spec or Tuning, or the campaign Options.
func isSettings(pkg, name string) bool {
	if !ast.IsExported(name) {
		return false
	}
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Spec") ||
		strings.HasSuffix(name, "Tuning") || (pkg == "internal/experiments." && name == "Options")
}

// fieldsSet returns the field names node n sets: the keys of a composite
// literal, and the selector on the left of an assignment or an
// increment/decrement.
func fieldsSet(n ast.Node) []string {
	var lhs []ast.Expr
	switch x := n.(type) {
	case *ast.CompositeLit:
		var names []string
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					names = append(names, id.Name)
				}
			}
		}
		return names
	case *ast.AssignStmt:
		lhs = x.Lhs
	case *ast.IncDecStmt:
		lhs = []ast.Expr{x.X}
	}
	var names []string
	for _, e := range lhs {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			names = append(names, sel.Sel.Name)
		}
	}
	return names
}

// recvType names a method's receiver type without pointer or type parameters.
func recvType(x ast.Expr) string {
	switch t := x.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}
