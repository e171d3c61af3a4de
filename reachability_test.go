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
	"internal/app.NewDNSServer":          "the only UDP server; the DNS and baseline UDP tests run it until a campaign does",
	"internal/app.NewDNSClient":          "the only UDP client; the DNS and baseline UDP tests run it until a campaign does",
	"internal/pfilter.Filter.Append":     "the packet filter's rule table; nothing outside its tests installs rules yet",
	"internal/pfilter.Filter.Clear":      "the packet filter's rule table; nothing outside its tests installs rules yet",
	"internal/tcpeng.Engine.Shutdown":    "abrupt engine teardown with RSTs, pinned by its test; replica crashes lose state silently instead",
	"internal/core.System.Quarantine":    "the operator's manual fence; the drop-all and fault-injection tests call it",
	"internal/faultinject.Injector.Pick": "weighted component draw, checked against its weights by its test",

	// Test harness API: fault hooks, stepping, frame builders, instruments.
	"internal/sim.Proc.SetDropRate":              "the lossy-channel fault hook of the ownership and watchdog tests",
	"internal/sim.Simulator.Drain":               "runs a test simulation to quiescence",
	"internal/sim.Simulator.Step":                "single-steps a test simulation",
	"internal/sim.Simulator.Idle":                "tests check that a run left no events behind",
	"internal/bufpool.Ref.Retain":                "part of the slab refcount contract; the ownership property test models shared holders with it",
	"internal/proto.BuildICMP":                   "builds the ICMP frames of the proto and ipeng tests",
	"internal/proto.BuildUDP":                    "builds the UDP frames of the proto, ipeng, udpeng and pfilter tests",
	"internal/proto.FlagString":                  "renders TCP flags; pinned by the proto tests",
	"internal/proto.SeqMax":                      "sequence-space helper beside SeqLT/SeqGEQ; pinned by the proto tests",
	"internal/metrics.Counter.Inc":               "instrument API the registry tests exercise",
	"internal/metrics.Counter.Set":               "instrument API the registry tests exercise",
	"internal/metrics.Gauge.Set":                 "instrument API the registry tests exercise",
	"internal/metrics.Histogram.Min":             "instrument API the metrics tests exercise",
	"internal/metrics.Histogram.Max":             "instrument API the metrics and watchdog tests read",
	"internal/metrics.Rate":                      "instrument API the metrics tests exercise",
	"internal/metrics.CPUSampler.MaxUtilization": "instrument API the metrics tests exercise",

	// Accessors tests read to observe state.
	"internal/faultinject.Injector.Injected": "read by the fault-injection tests",
	"internal/ipc.Conn.InFlight":             "read by the ring tests",
	"internal/ipc.Conn.Peer":                 "read by the rebind test",
	"internal/ipeng.Engine.ARPEntry":         "read by the ARP resolution tests",
	"internal/nicdev.NIC.NumTrackedFlows":    "read by the flow-tracking tests",
	"internal/nicdev.NIC.RSSQueues":          "read by the drop-all quarantine test",
	"internal/sim.Proc.CrashCause":           "read by the crash tests",
	"internal/sim.Proc.QueueLen":             "read by the scheduler tests",
	"internal/sim.Simulator.Machines":        "read by the stack and nicdev tests",
	"internal/sim.Simulator.PDESEnabled":     "read by the PDES tests",
	"internal/socketlib.Lib.NumOpenSockets":  "read by the socket library tests",
	"internal/tcpeng.Conn.RecvAvailable":     "read by the flow-control and byte-path tests",
	"internal/tcpeng.Listener.AcceptPending": "read by the accept-queue test",
	"internal/testbed.FarmMember.Alive":      "read by the cluster failover test",
	"internal/udpeng.Engine.NumBound":        "read by the UDP engine tests",
	"internal/wire.L4Service.NumFlows":       "read by the switch tests",
	"internal/pfilter.Filter.NumRules":       "read by the packet filter tests",
}

// TestEveryExportIsReachable fails on an exported function or method whose
// name appears in no non-test Go file but its own, and on an allowlist entry
// that no longer exists or has gained such a caller. Matching is by name, so
// it errs towards "reachable": any identifier with the same name elsewhere
// counts.
func TestEveryExportIsReachable(t *testing.T) {
	fset := token.NewFileSet()
	// named[name] is the set of non-test files holding an identifier name.
	named := map[string]map[string]bool{}
	type export struct{ key, name, file string }
	var exports []export
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
			return true
		})
		if strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) {
			return nil // callers only: benchmark/ is not this repo's API
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := filepath.ToSlash(filepath.Dir(path)) + "."
			if key == ".." {
				key = "neat."
			}
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

	declared := map[string]bool{}
	var unreached []string
	for _, e := range exports {
		declared[e.key] = true
		reached := false
		for file := range named[e.name] {
			if file != e.file {
				reached = true
				break
			}
		}
		_, allowed := reachableOnlyFromTests[e.key]
		switch {
		case !reached && !allowed:
			unreached = append(unreached, e.key+" ("+filepath.ToSlash(e.file)+")")
		case reached && allowed:
			t.Errorf("%s is on the allowlist but another non-test file now names it; drop the entry", e.key)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s: exported, but no other non-test file names it; wire it into something a user runs, delete it, or allowlist it with a reason", u)
	}
	for key := range reachableOnlyFromTests {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no exported function or method; drop it", key)
		}
	}
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
