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
