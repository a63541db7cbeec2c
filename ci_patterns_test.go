package duopacity_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testFunc matches the top-level test and fuzz functions of a test file.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// TestCIRunPatterns: go test passes when -run matches nothing, so a CI
// step naming a renamed or deleted test would silently run nothing. Every
// |-alternative of every -run and -fuzz pattern in the workflow must
// match a Test or Fuzz function in the packages its go test line names.
// '^$' (run no tests, only benchmarks or fuzzing) is the one pattern
// allowed to match nothing.
func TestCIRunPatterns(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for n, line := range strings.Split(string(raw), "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		// The workflow quotes patterns but never puts a blank in one.
		args := strings.Fields(line[i+len("go test "):])
		for j := range args {
			args[j] = strings.Trim(args[j], `'"`)
		}
		var patterns, pkgs []string
		for j := 0; j < len(args); j++ {
			switch a := args[j]; {
			case (a == "-run" || a == "-fuzz") && j+1 < len(args):
				j++
				patterns = append(patterns, args[j])
			case strings.HasPrefix(a, "-run=") || strings.HasPrefix(a, "-fuzz="):
				patterns = append(patterns, a[strings.IndexByte(a, '=')+1:])
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		if len(patterns) == 0 {
			continue
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		names := testFuncs(t, pkgs)
		for _, p := range patterns {
			if p == "^$" {
				continue
			}
			for _, alt := range alternatives(p) {
				re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
				if err != nil {
					t.Errorf("ci.yml:%d: pattern %q: %v", n+1, alt, err)
					continue
				}
				if !matchesAny(re, names) {
					t.Errorf("ci.yml:%d: %q matches no Test or Fuzz function in %v", n+1, alt, pkgs)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run or -fuzz patterns found in ci.yml")
	}
}

// alternatives splits a pattern on the | outside parentheses and
// brackets.
func alternatives(p string) []string {
	var alts []string
	depth, start := 0, 0
	for i, r := range p {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, p[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, p[start:])
}

// testFuncs lists the Test and Fuzz functions of the packages named on a
// go test line ("./..." for every package under a directory).
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	addDir := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
		}
	}
	for _, p := range pkgs {
		dir, recursive := strings.CutSuffix(p, "/...")
		if _, err := os.Stat(dir); err != nil {
			t.Errorf("go test names package %s: %v", p, err)
			continue
		}
		if !recursive {
			addDir(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				addDir(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
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
