package paralleltape

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestStdlibAPIWithinGoDirective fails when the module uses a
// standard-library function, type, variable or constant added after the
// Go release named by go.mod's go directive. Such code builds with a newer
// toolchain but not with the oldest one the module claims to support, and
// go vet's stdversion check does not see symbols newer than its own list.
// The additions come from the toolchain's $GOROOT/api/go1.N.txt files; the
// test skips when the toolchain has none newer than the directive. It
// checks package-level selectors (pkg.Name) only, not new methods on old
// types.
func TestStdlibAPIWithinGoDirective(t *testing.T) {
	minor := goDirectiveMinor(t)
	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Skipf("go env GOROOT: %v", err)
	}
	added := map[string]map[string]string{} // import path → name → release
	for n := minor + 1; ; n++ {
		file := filepath.Join(strings.TrimSpace(string(out)), "api", fmt.Sprintf("go1.%d.txt", n))
		if _, err := os.Stat(file); err != nil {
			break
		}
		readAPIAdditions(t, file, fmt.Sprintf("go1.%d", n), added)
	}
	if len(added) == 0 {
		t.Skipf("the toolchain lists no API newer than go1.%d", minor)
	}

	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata" || p == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name → import path
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := importName(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Obj != nil { // id.Obj is set for local declarations
				return true
			}
			if rel, ok := added[imports[id.Name]][sel.Sel.Name]; ok {
				t.Errorf("%s: %s.%s was added in %s, after go.mod's go 1.%d",
					fset.Position(sel.Pos()), id.Name, sel.Sel.Name, rel, minor)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// goDirectiveMinor returns N from go.mod's "go 1.N" line.
func goDirectiveMinor(t *testing.T) int {
	t.Helper()
	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^go 1\.(\d+)`).FindSubmatch(data)
	if m == nil {
		t.Fatal("go.mod has no go 1.N directive")
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n
}

// apiDecl matches a package-level addition in an api/go1.N.txt file:
// "pkg path[ (goos-goarch)], kind Name...". Method lines do not match.
var apiDecl = regexp.MustCompile(`^pkg ([^ ,]+)(?: \([^)]*\))?, (func|type|var|const) ([A-Za-z_][A-Za-z0-9_]*)`)

// readAPIAdditions records file's package-level additions in added,
// skipping deprecation notices and struct-field and interface-method
// lines, which name no new package-level symbol.
func readAPIAdditions(t *testing.T, file, release string, added map[string]map[string]string) {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "//deprecated") || strings.Contains(line, " struct, ") || strings.Contains(line, " interface, ") {
			continue
		}
		m := apiDecl.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if added[m[1]] == nil {
			added[m[1]] = map[string]string{}
		}
		if _, seen := added[m[1]][m[3]]; !seen {
			added[m[1]][m[3]] = release
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// importName is the package name an import path binds by default: its
// last element, skipping a major-version suffix such as /v2.
func importName(ip string) string {
	base := path.Base(ip)
	if len(base) > 1 && base[0] == 'v' && strings.Trim(base[1:], "0123456789") == "" {
		return path.Base(path.Dir(ip))
	}
	return base
}
