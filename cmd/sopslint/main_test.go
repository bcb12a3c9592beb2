package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDriverExitAndJSON builds sopslint and runs it with -json over a
// scratch module that shares this module's path, on one clean package
// and one that imports math/rand (an rngsource finding). The clean run
// must print [] and exit 0; the finding must carry every field CI's
// annotation step reads, and the run must exit 2.
func TestDriverExitAndJSON(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "sopslint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building sopslint: %v\n%s", err, out)
	}
	mod := filepath.Join(dir, "mod")
	files := map[string]string{
		"go.mod":         "module repro\n\ngo 1.24\n",
		"clean/clean.go": "package clean\n\nfunc Two() int { return 2 }\n",
		"dirty/dirty.go": "package dirty\n\nimport \"math/rand\"\n\nfunc Roll() int { return rand.Intn(6) }\n",
	}
	for name, src := range files {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sopslint := func(pattern string) ([]jsonDiag, string, int) {
		t.Helper()
		cmd := exec.Command(bin, "-json", pattern)
		cmd.Dir = mod
		out, err := cmd.Output()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		var diags []jsonDiag
		if err := json.Unmarshal(out, &diags); err != nil {
			t.Fatalf("sopslint -json %s: output is not a JSON array: %v\n%s", pattern, err, out)
		}
		return diags, strings.TrimSpace(string(out)), code
	}

	diags, out, code := sopslint("./clean")
	if out != "[]" || code != 0 {
		t.Errorf("clean package: output %q, exit %d; want [] and exit 0", out, code)
	}

	diags, out, code = sopslint("./dirty")
	if code != 2 {
		t.Errorf("dirty package: exit %d, want 2", code)
	}
	if len(diags) != 1 {
		t.Fatalf("dirty package: %d diagnostics, want 1\n%s", len(diags), out)
	}
	d := diags[0]
	if filepath.Base(d.File) != "dirty.go" || d.Line != 3 || d.Col != 8 || d.Analyzer != "rngsource" ||
		!strings.Contains(d.Message, "import of math/rand outside internal/rngx") {
		t.Errorf("dirty package diagnostic = %+v", d)
	}
	for _, field := range []string{`"file"`, `"line"`, `"col"`, `"analyzer"`, `"message"`} {
		if !strings.Contains(out, field) {
			t.Errorf("JSON output lacks field %s\n%s", field, out)
		}
	}
}
