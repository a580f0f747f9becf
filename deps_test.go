package bookmarkgc_test

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestSimulatorLinksNoNetworking pins the dependency cut: the library
// and every internal package except the HTTP surface (internal/
// telemetry/serve, which only the command-line tools import) link no
// networking. A process that imports net/http carries net, crypto/tls
// and cgo in its image, which costs every simulator binary resident
// memory it never runs.
func TestSimulatorLinksNoNetworking(t *testing.T) {
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := exec.LookPath(goTool); err != nil {
		if goTool, err = exec.LookPath("go"); err != nil {
			t.Fatalf("no go command to list dependencies with: %v", err)
		}
	}
	out, err := exec.Command(goTool, "list", "-f", `{{.ImportPath}}{{range .Deps}} {{.}}{{end}}`,
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
