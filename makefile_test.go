package neat_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestVerifyRunPatternsNameTests fails when an alternative of a -run, -bench
// or -fuzz pattern in the Makefile's verify target matches no Test, Benchmark
// or Fuzz function in the packages named on that line. go test passes a
// pattern that matches nothing, so a renamed or deleted test would otherwise
// drop out of the gate silently. The pattern "^$" (run no tests) is exempt.
func TestVerifyRunPatternsNameTests(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	flagRE := regexp.MustCompile(`-(run|bench|fuzz) '([^']*)'`)
	pkgRE := regexp.MustCompile(`^\.(/\S+)?$`)
	checked := 0
	inVerify := false
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasPrefix(line, "verify:"):
			inVerify = true
			continue
		case !strings.HasPrefix(line, "\t"):
			inVerify = false
		}
		if !inVerify || !strings.Contains(line, "$(GO) test ") {
			continue
		}
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if pkgRE.MatchString(f) {
				pkgs = append(pkgs, f)
			}
		}
		if len(pkgs) == 0 {
			t.Errorf("Makefile line names no package: %s", strings.TrimSpace(line))
			continue
		}
		funcs := testFuncs(t, pkgs)
		for _, m := range flagRE.FindAllStringSubmatch(line, -1) {
			pattern := strings.ReplaceAll(m[2], "$$", "$")
			if pattern == "^$" {
				continue
			}
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
				if err != nil {
					t.Errorf("-%s alternative %q: %v", m[1], alt, err)
					continue
				}
				checked++
				if !matchesAny(re, funcs) {
					t.Errorf("-%s alternative %q names no test function in %s", m[1], alt, strings.Join(pkgs, " "))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run/-bench/-fuzz pattern in the verify target")
	}
}

// testFuncs returns the Test, Benchmark and Fuzz function names declared in
// the _test.go files of the given package directories.
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, dir := range pkgs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil {
					continue
				}
				for _, prefix := range []string{"Test", "Benchmark", "Fuzz"} {
					if strings.HasPrefix(fn.Name.Name, prefix) {
						names = append(names, fn.Name.Name)
					}
				}
			}
		}
	}
	return names
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
