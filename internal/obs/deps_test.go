package obs

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

// TestInternalLinksNoHTTP keeps HTTP exposition out of the observability
// core: no package under internal/ except obshttp may depend on net/http,
// net/http/pprof, crypto/tls or crypto/x509, directly or transitively.
// The serving plane, the cluster and the load harness all record into
// obs, so a net/http import here would reach all of them, and the
// end-to-end benchmark with them, at megabytes of code and resident
// memory.
func TestInternalLinksNoHTTP(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("need the go command to list dependencies: %v", err)
	}
	// One line per package: its import path, then every package it
	// depends on, directly or not (what `go list -deps` prints for it).
	cmd := exec.Command(gobin, "list", "-f", `{{.ImportPath}}{{range .Deps}} {{.}}{{end}}`, "beqos/internal/...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	checked := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		pkg, deps := fields[0], fields[1:]
		if pkg == "beqos/internal/obs/obshttp" {
			continue
		}
		checked++
		for _, d := range deps {
			switch d {
			case "net/http", "net/http/pprof", "crypto/tls", "crypto/x509":
				t.Errorf("%s links %s", pkg, d)
			}
		}
	}
	if checked == 0 {
		t.Fatalf("go list found no package under internal/ besides obshttp:\n%s", out)
	}
}
