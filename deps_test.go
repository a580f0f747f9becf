package bookmarkgc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// goCommand returns the go command that built the test.
func goCommand(t *testing.T) string {
	t.Helper()
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := exec.LookPath(goTool); err != nil {
		if goTool, err = exec.LookPath("go"); err != nil {
			t.Fatalf("no go command to list dependencies with: %v", err)
		}
	}
	return goTool
}

// TestSimulatorLinksNoNetworking pins the dependency cut: the library
// and every internal package except the HTTP surface (internal/
// telemetry/serve, which only the command-line tools import) link no
// networking. A process that imports net/http carries net, crypto/tls
// and cgo in its image, which costs every simulator binary resident
// memory it never runs.
func TestSimulatorLinksNoNetworking(t *testing.T) {
	out, err := exec.Command(goCommand(t), "list", "-f", `{{.ImportPath}}{{range .Deps}} {{.}}{{end}}`,
		".", "./internal/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	forbidden := map[string]bool{"net": true, "net/http": true, "crypto/tls": true, "runtime/cgo": true}
	listed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		pkg := fields[0]
		listed[pkg] = true
		if pkg == "bookmarkgc/internal/telemetry/serve" {
			continue
		}
		for _, dep := range fields[1:] {
			if forbidden[dep] {
				t.Errorf("%s depends on %s", pkg, dep)
			}
		}
	}
	for _, pkg := range []string{"bookmarkgc", "bookmarkgc/internal/sim", "bookmarkgc/internal/telemetry"} {
		if !listed[pkg] {
			t.Errorf("go list did not list %s", pkg)
		}
	}
}

// TestHostCollectorUntuned: no package under internal/ but the host
// profiler (internal/hostprof) tunes or drives the Go collector: none
// imports runtime/debug (SetGCPercent, SetMemoryLimit, FreeOSMemory),
// and no non-test file calls runtime.GC. What the simulator holds on the
// host must come down by not making garbage, not by a collector setting.
func TestHostCollectorUntuned(t *testing.T) {
	out, err := exec.Command(goCommand(t), "list", "-f",
		"{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}\t{{join .Imports \" \"}}", "./internal/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	checked := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		pkg, dir, files, imports := f[0], f[1], strings.Fields(f[2]), strings.Fields(f[3])
		if pkg == "bookmarkgc/internal/hostprof" {
			continue
		}
		checked++
		for _, imp := range imports {
			if imp == "runtime/debug" {
				t.Errorf("%s imports runtime/debug", pkg)
			}
		}
		for _, name := range files {
			for _, pos := range runtimeGCCalls(t, filepath.Join(dir, name)) {
				t.Errorf("%s: %s calls runtime.GC", pkg, pos)
			}
		}
	}
	if checked < 10 {
		t.Errorf("checked only %d packages under internal/", checked)
	}
}

// runtimeGCCalls returns the positions of the runtime.GC calls in the Go
// file at path, under whatever name the file imports runtime.
func runtimeGCCalls(t *testing.T, path string) []string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	name := ""
	for _, imp := range file.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "runtime" {
			name = "runtime"
			if imp.Name != nil {
				name = imp.Name.Name
			}
		}
	}
	if name == "" {
		return nil
	}
	var calls []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "GC" {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
				calls = append(calls, fset.Position(call.Pos()).String())
			}
		}
		return true
	})
	return calls
}
