// Package load turns Go package patterns into parsed, type-checked packages
// using only the standard library and the go tool itself.
//
// `go list -export -json -deps` supplies both the package graph and the
// compiled export data for every dependency (the go tool builds it into the
// local build cache, no network involved); go/parser and go/types then check
// the target sources against that export data via the stdlib gc importer.
// This is the same shape as golang.org/x/tools/go/packages.Load with
// NeedTypes, rebuilt on the stdlib because the build environment cannot
// fetch x/tools.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
)

// Meta is the subset of `go list -json` output the loader consumes.
type Meta struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *Module
	Error      *ListError
}

// Module identifies the module a package belongs to.
type Module struct {
	Path string
	Dir  string
}

// ListError is a package-level error reported by go list.
type ListError struct {
	Err string
}

// Package is one parsed and type-checked package.
type Package struct {
	Meta      *Meta
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	TypeErrs  []error
}

// goList runs `go list` in dir and decodes its JSON package stream.
func goList(dir string, args ...string) ([]*Meta, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	var metas []*Meta
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		m := new(Meta)
		if err := dec.Decode(m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", args, err)
		}
		metas = append(metas, m)
	}
	return metas, nil
}

// An Exporter resolves import paths to compiled export data, shelling out to
// `go list -export` on demand for paths outside the already-known closure
// (e.g. a test fixture importing a stdlib package the module never uses).
type Exporter struct {
	dir string

	mu    sync.Mutex
	files map[string]string // import path -> export data file
}

// NewExporter returns an Exporter that resolves packages relative to dir
// (any directory inside the module).
func NewExporter(dir string) *Exporter {
	return &Exporter{dir: dir, files: map[string]string{}}
}

// NewModuleExporter returns an Exporter pre-seeded with the full package
// closure of the module rooted at dir, so lookups of any package the module
// builds against resolve without further go list round trips.
func NewModuleExporter(dir string) (*Exporter, error) {
	metas, err := goList(dir, "-export", "-json", "-deps", "./...")
	if err != nil {
		return nil, err
	}
	e := NewExporter(dir)
	e.Add(metas)
	return e, nil
}

// Add records the export data locations of the given packages.
func (e *Exporter) Add(metas []*Meta) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range metas {
		if m.Export != "" {
			e.files[m.ImportPath] = m.Export
		}
	}
}

// Lookup returns a reader over the export data for path, for use with the
// stdlib gc importer.
func (e *Exporter) Lookup(path string) (io.ReadCloser, error) {
	e.mu.Lock()
	f, ok := e.files[path]
	e.mu.Unlock()
	if !ok {
		metas, err := goList(e.dir, "-export", "-json", "-deps", path)
		if err != nil {
			return nil, fmt.Errorf("load: no export data for %q: %v", path, err)
		}
		e.Add(metas)
		e.mu.Lock()
		f, ok = e.files[path]
		e.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("load: go list produced no export data for %q", path)
		}
	}
	return os.Open(f)
}

// Load lists patterns in dir and returns every non-dependency module package,
// parsed with comments and type-checked against compiled export data.
func Load(dir string, patterns ...string) ([]*Package, error) {
	metas, err := goList(dir, append([]string{"-export", "-json", "-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exp := NewExporter(dir)
	exp.Add(metas)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exp.Lookup)
	var pkgs []*Package
	for _, m := range metas {
		if m.DepOnly || m.Standard || m.Module == nil {
			continue
		}
		if m.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", m.ImportPath, m.Error.Err)
		}
		var files []string
		for _, f := range m.GoFiles {
			files = append(files, filepath.Join(m.Dir, f))
		}
		pkg, err := check(fset, imp, m, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadFiles parses and type-checks one package from an explicit file list
// under an explicit import path, resolving imports through exp. It is the
// entry point for analysistest fixtures, whose sources live under testdata,
// invisible to go list.
func LoadFiles(exp *Exporter, importPath string, files []string) (*Package, error) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exp.Lookup)
	return check(fset, imp, &Meta{ImportPath: importPath}, files)
}

// check parses files and type-checks them as the package described by m.
// Type errors are collected on the returned Package, not fatal: analyzers
// still run so a single bad file does not hide every other finding.
func check(fset *token.FileSet, imp types.Importer, m *Meta, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %v", err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		Meta:  m,
		Fset:  fset,
		Files: files,
		TypesInfo: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrs = append(pkg.TypeErrs, err) },
	}
	// Check returns the first error too; it is already in TypeErrs.
	pkg.Types, _ = conf.Check(m.ImportPath, fset, files, pkg.TypesInfo)
	return pkg, nil
}
