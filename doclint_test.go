package paralleltape

// Doc lints. The trace schema, the fault model, the span analysis and the
// simulation kernel are documented contracts (docs/OBSERVABILITY.md,
// docs/RESILIENCE.md, docs/ARCHITECTURE.md "Determinism"), so every
// exported identifier in those packages must carry a doc comment and each
// package must have a package comment. check.sh and `make lint` run
// TestExportedIdentifiersHaveDocComments. The exhibit list written in
// README.md and in RunExperiment's comment is checked against the one in
// code.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"paralleltape/internal/experiments"
)

// documentedPackages are the package directories whose exported
// identifiers must all carry doc comments.
var documentedPackages = []string{"internal/trace", "internal/faults", "internal/spans", "internal/sim"}

func TestExportedIdentifiersHaveDocComments(t *testing.T) {
	for _, dir := range documentedPackages {
		t.Run(dir, func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for name, pkg := range pkgs {
				hasPackageDoc := false
				for _, file := range pkg.Files {
					hasPackageDoc = hasPackageDoc || file.Doc != nil
					lintFile(t, fset, file)
				}
				if !hasPackageDoc {
					t.Errorf("%s: package %s has no package-level doc comment", dir, name)
				}
			}
		})
	}
}

// lintFile reports every exported declaration in file without a doc
// comment.
func lintFile(t *testing.T, fset *token.FileSet, file *ast.File) {
	t.Helper()
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				t.Errorf("%s: exported %s %s has no doc comment", fset.Position(d.Pos()), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			lintGenDecl(t, fset, d)
		}
	}
}

// lintGenDecl checks exported names in a var/const/type declaration. A doc
// comment on the enclosing decl covers all specs; otherwise each exported
// spec needs its own.
func lintGenDecl(t *testing.T, fset *token.FileSet, d *ast.GenDecl) {
	t.Helper()
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				t.Errorf("%s: exported type %s has no doc comment", fset.Position(s.Pos()), s.Name.Name)
			}
			if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						if n.IsExported() && f.Doc == nil && f.Comment == nil {
							t.Errorf("%s: exported field %s.%s has no doc comment",
								fset.Position(n.Pos()), s.Name.Name, n.Name)
						}
					}
				}
			}
		case *ast.ValueSpec:
			for _, n := range s.Names {
				if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					t.Errorf("%s: exported %s %s has no doc comment",
						fset.Position(n.Pos()), d.Tok, n.Name)
				}
			}
		}
	}
}

// TestExperimentIDsDocumented checks that README's tapebench -experiment
// row and RunExperiment's doc comment name exactly the exhibits of
// experiments.IDs, in order.
func TestExperimentIDsDocumented(t *testing.T) {
	want := experiments.IDs()

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	const rowStart = "| `-experiment E` |"
	var row string
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, rowStart) {
			row = line
		}
	}
	if row == "" {
		t.Fatalf("README.md has no line starting %q", rowStart)
	}
	if got := quoted(row, "`"); !slices.Equal(got, append([]string{"all"}, want...)) {
		t.Errorf("README.md -experiment row names %q, want all followed by %q", got, want)
	}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "paralleltape.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "RunExperiment" {
			if got := quoted(fn.Doc.Text(), `"`); !slices.Equal(got, want) {
				t.Errorf("RunExperiment's comment names %q, want %q", got, want)
			}
			return
		}
	}
	t.Fatal("paralleltape.go declares no RunExperiment")
}

// quoted returns, in order, the words that s quotes with q.
func quoted(s, q string) []string {
	var words []string
	for _, m := range regexp.MustCompile(q+"([a-z0-9]+)"+q).FindAllStringSubmatch(s, -1) {
		words = append(words, m[1])
	}
	return words
}
