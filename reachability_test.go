package neat_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// reachableOnlyFromTests lists the exported functions and methods outside
// benchmark/ that no other non-test file uses, kept on purpose, each with
// the reason. Everything else exported must be reached from a file other
// than its own — a campaign, a CLI, an example, the facade, another package
// or the benchmark — or be deleted.
var reachableOnlyFromTests = map[string]string{
	// Features that only tests drive today.
	"internal/app.NewDNSServer":       "the only UDP server; the DNS and baseline UDP tests run it until a campaign does",
	"internal/app.NewDNSClient":       "the only UDP client; the DNS and baseline UDP tests run it until a campaign does",
	"internal/app.DNSServer.Start":    "part of the test-only DNS server (see NewDNSServer)",
	"internal/app.DNSServer.Stats":    "part of the test-only DNS server (see NewDNSServer)",
	"internal/app.DNSClient.Start":    "part of the test-only DNS client (see NewDNSClient)",
	"internal/app.DNSClient.Stop":     "part of the test-only DNS client (see NewDNSClient)",
	"internal/app.DNSClient.Stats":    "part of the test-only DNS client (see NewDNSClient)",
	"internal/core.System.Quarantine": "the operator's manual fence; the drop-all and fault-injection tests call it",

	// Test harness API: fault hooks, stepping, frame builders, instruments.
	"internal/sim.Proc.SetDropRate":      "the lossy-channel fault hook of the ownership and watchdog tests",
	"internal/sim.Simulator.Drain":       "runs a test simulation to quiescence",
	"internal/sim.Simulator.Step":        "single-steps a test simulation",
	"internal/sim.Simulator.Idle":        "tests check that a run left no events behind",
	"internal/bufpool.Ref.Retain":        "part of the slab refcount contract; the ownership property test models shared holders with it",
	"internal/proto.BuildICMP":           "builds the ICMP frames of the proto and ipeng tests",
	"internal/proto.BuildUDP":            "builds the UDP frames of the proto, ipeng and udpeng tests",
	"internal/metrics.Counter.Set":       "instrument API the registry tests exercise",
	"internal/metrics.Gauge.Set":         "instrument API the registry tests exercise",
	"internal/metrics.Histogram.Max":     "instrument API the metrics and watchdog tests read",
	"internal/metrics.Histogram.Count":   "instrument API the metrics, trace and app tests read",
	"internal/app.Loadgen.Stop":          "the app and pool-drain tests stop a generator mid-run",
	"internal/core.System.Syscall":       "the watchdog and fault-injection tests restart the SYSCALL server through it",
	"internal/socketlib.Listener.Close":  "the socket API's listener close; the core and socketlib tests drive it",
	"internal/socketlib.UDPSocket.Close": "the socket API's UDP close; the socketlib tests drive it",

	// Accessors tests in other packages read to observe state.
	"internal/faultinject.Injector.Injected": "read by the fault-injection tests",
	"internal/nicdev.NIC.RSSQueues":          "read by the drop-all quarantine test",
	"internal/sim.Simulator.Machines":        "read by the stack and nicdev tests",
	"internal/testbed.FarmMember.Alive":      "read by the cluster failover test",
	"internal/wire.L4Service.NumActive":      "read by the switch and cluster failover tests",
	"internal/app.SYNFlood.Stats":            "read by the hostile-client and facade SYN-cookie tests",
	"internal/ipeng.Engine.Stats":            "read by the ipeng and stack byte-path tests",
	"internal/baseline.System.Stats":         "read by the baseline tests",
	"internal/baseline.System.TCP":           "read by the baseline tests",
	"internal/tcpeng.Engine.Config":          "the facade tests check that each SystemConfig knob reached every engine",
}

// settableOnlyFromTests lists the fields of settings types (see isSettings)
// that no non-test file but the declaring one sets, kept on purpose, each
// with the reason. Any other such field is a constant in disguise.
var settableOnlyFromTests = map[string]string{
	"internal/testbed.NEaTConfig.DisableFlowFilters": "the pure-RSS side of the paper's flow-director ablation; BenchmarkAblationFlowDirectorVsRSS sets it",
	"internal/tcpeng.Config.SendBuf":                 "the byte-path tests shrink the send buffer to force it to wrap",
	"internal/app.HTTPDConfig.Backlog":               "the slowloris tests shrink the accept backlog the attack exhausts",
	"internal/app.DNSServerConfig.Port":              "part of the test-only DNS server (see NewDNSServer)",
	"internal/app.DNSClientConfig.Target":            "part of the test-only DNS client (see NewDNSClient)",
	"internal/app.DNSClientConfig.Port":              "part of the test-only DNS client (see NewDNSClient)",
	"internal/app.DNSClientConfig.Interval":          "part of the test-only DNS client (see NewDNSClient)",
	"internal/app.DNSClientConfig.Timeout":           "part of the test-only DNS client (see NewDNSClient)",

	// The facade's knobs no example or tool sets yet; the facade tests
	// check each reaches the system it configures.
	"neat.SystemConfig.TSO":      "facade knob; TestOneCompilePath sets it",
	"neat.SystemConfig.Watchdog": "facade knob; TestOneCompilePath sets it",
	"neat.SystemConfig.Guard":    "facade knob; TestSynCookiesThroughFacade sets it",
	"neat.SystemConfig.IPC":      "facade knob; TestOneCompilePath sets it",
	"neat.SystemConfig.Steering": "facade knob; TestOneCompilePath sets it",
	"neat.SteeringConfig.Policy": "facade knob; TestOneCompilePath sets it",
	"neat.TopologyConfig.Server": "facade knob; TestXeonModelAvailable sets it",
}

// namedOnlyInOwnFile lists the exported constants that no non-test file
// but the declaring one names, kept on purpose, each with the reason.
var namedOnlyInOwnFile = map[string]string{
	"internal/bufpool.RaceDetector": "tests of several packages skip allocation counts under the race detector",
	"neat.SingleComponent":          "the zero ReplicaKind's name, which the facade's Kind error tells users to write",
}

// TestEveryExportIsReachable type-checks every package of the module and
// fails on
//
//  1. an exported function or method whose object no non-test Go file but
//     its own uses (a method also counts as reached when it implements an
//     interface method some non-test file calls, or is String or Error);
//  2. a field of a settings struct (see isSettings) that no non-test Go
//     file but its own sets;
//  3. an exported constant that no non-test Go file but its own names;
//  4. a struct field that no Go file reads (test files count as readers
//     by selector name, since they are not type-checked; a map with a
//     struct key reads every field of the key);
//
// and on an allowlist entry that no longer exists or has gained such a
// use. Identifiers resolve to objects, so a declaration is never reached
// through another that shares its name.
func TestEveryExportIsReachable(t *testing.T) {
	start := time.Now()
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}

	var funcs, settings, consts, fields []item
	for _, p := range m.pkgs {
		if p.caller {
			continue // benchmark/ is a caller only, not this repo's API
		}
		for _, f := range p.files {
			for _, decl := range f.ast.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				obj := p.info.Defs[fn.Name].(*types.Func)
				funcs = append(funcs, item{key: m.key(obj), obj: obj, reached: m.funcReached(obj)})
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Const:
				if obj.Exported() {
					key := m.key(obj)
					consts = append(consts, item{key: key, obj: obj, reached: m.usedElsewhere(key, m.uses)})
				}
			case *types.TypeName:
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok || obj.IsAlias() {
					continue
				}
				if isSettings(p.rel, name) {
					for i := 0; i < st.NumFields(); i++ {
						if fld := st.Field(i); fld.Exported() {
							key := m.key(fld)
							settings = append(settings, item{key: key, obj: fld, reached: m.usedElsewhere(key, m.sets)})
						}
					}
				}
				m.eachField(st, func(fld *types.Var) {
					key := m.key(fld)
					fields = append(fields, item{key: key, obj: fld, reached: len(m.reads[key]) > 0 || m.testReads[fld.Name()]})
				})
			}
		}
	}

	m.check(t, "funcs", funcs, reachableOnlyFromTests,
		"exported, but no other non-test file uses it; wire it into something a user runs, delete it, or allowlist it with a reason",
		"is on the allowlist but another non-test file now uses it; drop the entry",
		"names no exported function or method; drop it")
	m.check(t, "settings", settings, settableOnlyFromTests,
		"a setting no other non-test file sets; make it a constant, delete it, or allowlist it with a reason",
		"is on the field allowlist but another non-test file now sets it; drop the entry",
		"names no settings field; drop it")
	m.check(t, "consts", consts, namedOnlyInOwnFile,
		"an exported constant no other non-test file names; unexport it, delete it, or allowlist it with a reason",
		"is on the constant allowlist but another non-test file now names it; drop the entry",
		"names no exported constant; drop it")
	m.check(t, "fields", fields, nil,
		"a field no Go file reads; delete it with its writes", "", "")
	t.Logf("module checked in %v", time.Since(start).Round(time.Millisecond))
}

// item is one checked declaration: its allowlist key, its object and
// whether its clause counts it as reached.
type item struct {
	key     string
	obj     types.Object
	reached bool
}

// check fails on each unreached item that allow does not list, on each
// allowlisted item that is now reached, and on each allowlist entry that
// names no item, then logs the clause's counts.
func (m *module) check(t *testing.T, clause string, items []item, allow map[string]string,
	unreachedMsg, reachedMsg, goneMsg string) {
	t.Helper()
	declared := map[string]bool{}
	var unreached []string
	flagged := 0
	for _, it := range items {
		if declared[it.key] {
			continue // the same declaration under another build tag
		}
		declared[it.key] = true
		_, allowed := allow[it.key]
		if !it.reached {
			flagged++
		}
		switch {
		case !it.reached && !allowed:
			unreached = append(unreached, fmt.Sprintf("%s (%s)", it.key, m.file(it.obj.Pos())))
		case it.reached && allowed:
			t.Errorf("%s %s", it.key, reachedMsg)
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
	t.Logf("clause %-8s checked %4d, flagged %3d, allowlisted %2d", clause, len(declared), flagged, len(allow))
}

// isSettings reports whether the exported struct type name of package rel
// (a directory relative to the module root) holds settings the settings
// clause checks: a name ending in Config, Spec or Tuning, or the campaign
// Options.
func isSettings(rel, name string) bool {
	if !ast.IsExported(name) {
		return false
	}
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Spec") ||
		strings.HasSuffix(name, "Tuning") || (rel == "internal/experiments" && name == "Options")
}

// module is the type-checked module: every package once, plus the package
// again under the race tag where that picks different files.
type module struct {
	fset *token.FileSet
	pkgs []*pkg
	// uses, sets and reads map an object key to the non-test files that
	// use the object, set the field, or read the field.
	uses, sets, reads map[string]map[string]bool
	// ifaceCalls holds the interface methods non-test files call, and
	// implements the keys of the methods implementing them.
	ifaceCalls []*types.Func
	implements map[string]bool
	// testReads holds the selector names test files read.
	testReads map[string]bool
	// decls maps an object key to the files declaring it.
	decls map[string]map[string]bool
	// fieldKeys names every field of a package-level struct type,
	// nested anonymous structs included ("Conn.snd.una").
	fieldKeys map[*types.Var]string
}

// pkg is one type-checked package.
type pkg struct {
	rel    string // directory relative to the module root; "." for the root
	caller bool   // benchmark/: its uses count, its declarations are not checked
	files  []*file
	types  *types.Package
	info   *types.Info
}

type file struct {
	path string
	ast  *ast.File
}

const modulePath = "neat"

// loadModule parses and type-checks every package under the module root.
// Files are chosen by go/build under the default tags and under race; the
// standard library is type-checked from source, once.
func loadModule() (*module, error) {
	m := &module{
		fset:       token.NewFileSet(),
		uses:       map[string]map[string]bool{},
		sets:       map[string]map[string]bool{},
		reads:      map[string]map[string]bool{},
		decls:      map[string]map[string]bool{},
		implements: map[string]bool{},
		testReads:  map[string]bool{},
		fieldKeys:  map[*types.Var]string{},
	}
	l := &loader{m: m, std: importer.ForCompiler(m.fset, "source", nil),
		parsed: map[string]*ast.File{}, dirs: map[string][2][]string{}, done: map[string]*types.Package{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			if strings.HasSuffix(path, "_test.go") {
				return l.parseTest(path)
			}
			return nil
		}
		base := d.Name()
		if path != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") ||
			base == "testdata" || path == filepath.Join("benchmark", "out")) {
			return filepath.SkipDir
		}
		var sets [2][]string
		for i, tags := range [][]string{nil, {"race"}} {
			ctx := build.Default
			ctx.BuildTags = tags
			bp, err := ctx.ImportDir(path, 0)
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			if err != nil {
				return err
			}
			sets[i] = bp.GoFiles
		}
		l.dirs[path] = sets
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(l.dirs))
	for dir := range l.dirs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := l.check(dir, 0); err != nil {
			return nil, err
		}
		if sets := l.dirs[dir]; strings.Join(sets[0], " ") != strings.Join(sets[1], " ") {
			if _, err := l.check(dir, 1); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range m.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					m.nameFields(st, keyPrefix(p.types)+name)
				}
			}
		}
	}
	for _, p := range m.pkgs {
		for _, obj := range p.info.Defs {
			if key := m.key(obj); key != "" {
				addFile(m.decls, key, m.file(obj.Pos()))
			}
		}
		m.record(p)
	}
	m.markImplementations()
	return m, nil
}

// loader type-checks module packages on demand, imports first.
type loader struct {
	m      *module
	std    types.Importer
	parsed map[string]*ast.File
	dirs   map[string][2][]string    // dir -> files under default tags, under race
	done   map[string]*types.Package // import path -> default-tag package
}

// Import resolves a module import to its default-tag package and anything
// else to the standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return l.std.Import(path)
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
	if dir == "" {
		dir = "."
	}
	return l.check(filepath.FromSlash(dir), 0)
}

// check type-checks dir's files under build-tag set variant (0 default, 1
// race) once.
func (l *loader) check(dir string, variant int) (*types.Package, error) {
	path := modulePath
	if dir != "." {
		path += "/" + filepath.ToSlash(dir)
	}
	if p, ok := l.done[path]; ok && variant == 0 {
		return p, nil
	}
	var files []*file
	var asts []*ast.File
	for _, name := range l.dirs[dir][variant] {
		fp := filepath.Join(dir, name)
		f, ok := l.parsed[fp]
		if !ok {
			var err error
			if f, err = parser.ParseFile(l.m.fset, fp, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			l.parsed[fp] = f
		}
		files = append(files, &file{path: fp, ast: f})
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.m.fset, asts, info)
	if err != nil {
		return nil, err
	}
	if variant == 0 {
		l.done[path] = tp
	}
	rel := filepath.ToSlash(dir)
	l.m.pkgs = append(l.m.pkgs, &pkg{rel: rel, caller: rel == "benchmark" || strings.HasPrefix(rel, "benchmark/"),
		files: files, types: tp, info: info})
	return tp, nil
}

// parseTest records the selector names a test file reads.
func (l *loader) parseTest(path string) error {
	f, err := parser.ParseFile(l.m.fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	written := writtenSelectors(f)
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && !written[sel.Sel] {
			l.m.testReads[sel.Sel.Name] = true
		}
		return true
	})
	return nil
}

// writtenSelectors returns the selector identifiers file f only writes:
// the last selector on the left of an assignment or an increment or
// decrement. A compound assignment counts as a write too.
func writtenSelectors(f *ast.File) map[*ast.Ident]bool {
	written := map[*ast.Ident]bool{}
	mark := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, e := range x.Lhs {
				mark(e)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		}
		return true
	})
	return written
}

// record adds package p's uses, field sets and field reads to m.
func (m *module) record(p *pkg) {
	written := map[*ast.Ident]bool{}
	for _, f := range p.files {
		for id := range writtenSelectors(f.ast) {
			written[id] = true
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				typ := p.info.Types[x].Type
				if ptr, ok := typ.Underlying().(*types.Pointer); ok {
					typ = ptr.Elem() // an elided &T{...} in a []*T literal
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						written[kv.Key.(*ast.Ident)] = true
					} else { // an unkeyed literal sets every field
						for i := 0; i < st.NumFields(); i++ {
							addFile(m.sets, m.key(st.Field(i)), f.path)
						}
						break
					}
				}
			case *ast.UnaryExpr:
				if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok && x.Op == token.AND {
					addFile(m.sets, m.key(p.info.Uses[sel.Sel]), f.path)
				}
			case *ast.MapType:
				// A map compares its keys whole: every field of a struct
				// key is read.
				if st, ok := p.info.TypeOf(x.Key).Underlying().(*types.Struct); ok {
					m.eachField(st, func(fld *types.Var) { addFile(m.reads, m.key(fld), f.path) })
				}
			}
			return true
		})
	}
	for id, obj := range p.info.Uses {
		key, path := m.key(obj), m.file(id.Pos())
		addFile(m.uses, key, path)
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				m.ifaceCalls = append(m.ifaceCalls, fn)
			}
		}
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if written[id] {
				addFile(m.sets, key, path)
			} else {
				addFile(m.reads, key, path)
			}
		}
	}
}

// key names a module object as the allowlists do: "dir.Name",
// "dir.Type.Method" or "dir.Type.field", with "neat" for the root package.
// Objects outside the module, local objects and fields of types declared
// inside functions have no key.
func (m *module) key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || (obj.Pkg().Path() != modulePath && !strings.HasPrefix(obj.Pkg().Path(), modulePath+"/")) {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return keyPrefix(o.Pkg()) + named.Obj().Name() + "." + o.Name()
			}
			return "" // an interface method
		}
		return keyPrefix(o.Pkg()) + o.Name()
	case *types.Var:
		if o.IsField() {
			return m.fieldKeys[o.Origin()]
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return keyPrefix(obj.Pkg()) + obj.Name()
}

// keyPrefix is "dir." for a module package ("neat." for the root).
func keyPrefix(p *types.Package) string {
	if p.Path() == modulePath {
		return modulePath + "."
	}
	return strings.TrimPrefix(p.Path(), modulePath+"/") + "."
}

// nameFields enters st's fields in m.fieldKeys under prefix, descending
// into fields of anonymous struct type.
func (m *module) nameFields(st *types.Struct, prefix string) {
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		m.fieldKeys[fld] = prefix + "." + fld.Name()
		if inner, ok := fld.Type().(*types.Struct); ok {
			m.nameFields(inner, prefix+"."+fld.Name())
		}
	}
}

// eachField calls fn for each named, non-embedded field of st and of the
// anonymous structs nested in it.
func (m *module) eachField(st *types.Struct, fn func(*types.Var)) {
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if inner, ok := fld.Type().(*types.Struct); ok {
			m.eachField(inner, fn)
		}
		if !fld.Embedded() && fld.Name() != "_" {
			fn(fld)
		}
	}
}

// usedElsewhere reports whether a file other than the ones declaring key
// appears in by[key].
func (m *module) usedElsewhere(key string, by map[string]map[string]bool) bool {
	for path := range by[key] {
		if !m.declares(path, key) {
			return true
		}
	}
	return false
}

// declares reports whether file path declares an object keyed key (two
// files may, under complementary build tags).
func (m *module) declares(path, key string) bool {
	return m.decls[key][path]
}

// funcReached reports whether another non-test file uses fn, or fn is a
// method that implements an interface method some non-test file calls, or
// is String or Error.
func (m *module) funcReached(fn *types.Func) bool {
	if m.usedElsewhere(m.key(fn), m.uses) {
		return true
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if fn.Name() == "String" || fn.Name() == "Error" {
		return true
	}
	return m.implements[m.key(fn)]
}

// markImplementations enters in m.implements every method, promoted ones
// included, through which a module type implements an interface method
// some non-test file calls.
func (m *module) markImplementations() {
	called := map[*types.Interface]map[*types.Func]bool{}
	for _, im := range m.ifaceCalls {
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if called[iface] == nil {
			called[iface] = map[*types.Func]bool{}
		}
		called[iface][im] = true
	}
	for _, p := range m.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			for iface, methods := range called {
				t := tn.Type()
				if !types.Implements(t, iface) {
					if t = types.NewPointer(t); !types.Implements(t, iface) {
						continue
					}
				}
				for im := range methods {
					if fn, ok := lookupMethod(t, im); ok {
						m.implements[m.key(fn)] = true
					}
				}
			}
		}
	}
}

// lookupMethod finds the method of t that implements interface method im.
func lookupMethod(t types.Type, im *types.Func) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(t, false, im.Pkg(), im.Name())
	fn, ok := obj.(*types.Func)
	return fn, ok
}

// addFile enters path under key in to; an empty key is no object.
func addFile(to map[string]map[string]bool, key, path string) {
	if key == "" {
		return
	}
	if to[key] == nil {
		to[key] = map[string]bool{}
	}
	to[key][path] = true
}

// file is the path of the file holding pos.
func (m *module) file(pos token.Pos) string {
	return m.fset.Position(pos).Filename
}
