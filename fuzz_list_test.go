package fcpn_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFuzzTargetsListed checks that `make fuzz`, which CI runs, lists
// every fuzz target of the module with its package, and nothing else: a
// Fuzz function missing from the Makefile would never be fuzzed, and a
// stale line fuzzes nothing. Nested modules (perfbench) are not part of
// the list.
func TestFuzzTargetsListed(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\t\$\(FUZZ\)='(Fuzz\w+)\$\$' \./(\S+?)/?$`).FindAllSubmatch(mk, -1) {
		listed[string(m[2])+"."+string(m[1])] = true
	}
	if len(listed) == 0 {
		t.Fatal("the Makefile's fuzz target lists no fuzz targets")
	}

	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			found[filepath.ToSlash(filepath.Dir(path))+"."+string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for target := range found {
		if !listed[target] {
			t.Errorf("%s is missing from the Makefile's fuzz target", target)
		}
	}
	for target := range listed {
		if !found[target] {
			t.Errorf("the Makefile's fuzz target lists %s, which does not exist", target)
		}
	}
}

// TestExamplesListed checks that `make examples`, which CI runs, runs
// every example program (each examples/<name>/main.go) and nothing else:
// an example missing from the Makefile could stop working unnoticed.
func TestExamplesListed(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	target := regexp.MustCompile(`(?m)^examples:\n((?:\t.*\n)*)`).FindSubmatch(mk)
	if target == nil {
		t.Fatal("the Makefile has no examples target")
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\tgo run \./examples/(\w+)$`).FindAllSubmatch(target[1], -1) {
		listed[string(m[1])] = true
	}
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, path := range mains {
		found[filepath.Base(filepath.Dir(path))] = true
	}
	if len(found) == 0 {
		t.Fatal("no examples/*/main.go found")
	}
	for name := range found {
		if !listed[name] {
			t.Errorf("examples/%s is missing from the Makefile's examples target", name)
		}
	}
	for name := range listed {
		if !found[name] {
			t.Errorf("the Makefile's examples target runs examples/%s, which has no main.go", name)
		}
	}
}
