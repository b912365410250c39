// Command relint is a determinism linter for the simulation core. Fault
// injection campaigns must be bit-reproducible from a seed (checkpoints
// resume mid-campaign, property tests replay injections), so the packages on
// the simulation path may not consult wall-clock time, draw from the global
// math/rand source, or let Go's randomized map iteration order leak into
// anything order-sensitive.
//
// Rules (all syntactic, via go/ast):
//
//	wallclock    calls to time.Now / time.Since / time.Until
//	global-rand  draws on the math/rand package source (rand.Intn, rand.Seed,
//	             ...); rand.New and rand.NewSource are allowed — campaigns
//	             derive per-run *rand.Rand instances from explicit seeds
//	map-order    a `for range` over a map whose body feeds order-sensitive
//	             sinks (append, fmt printing, Write/WriteString methods)
//
// A finding is suppressed by a `//relint:allow` comment on the same or the
// preceding line.
//
// Usage:
//
//	relint [-pkgs=dir,dir,...] [roots...]
//
// Roots (default ".", "./..." accepted as an alias) are walked recursively;
// only files inside one of the -pkgs directories are checked, so running
// `relint ./...` from the repo root enforces the rules exactly on the
// deterministic core while leaving CLIs and services free to use the clock.
// Test files and testdata directories are skipped. Exits 1 when any finding
// survives, 2 on usage or parse errors.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// defaultPkgs is the deterministic core — every package whose behaviour must
// be a pure function of (job, seed) — plus the layers above it whose output
// must replay bit-identically (static dataflow analysis, the job service,
// which journals and resumes campaigns; its clock is injected via
// Config.Now; the harden transforms, whose output participates in point
// identity; and the advisor, whose journaled search must resume to a
// bit-identical plan). The functional simulator, the instruction-level
// injector and the device model are the SVF layer's deterministic core. The
// fleet layer, the ACE liveness tracer, the shared CLI plumbing and the wire
// client ride along: their outputs feed the same deterministic pipelines, so
// wallclock or map-order dependence there is just as much a replay hazard.
const defaultPkgs = "internal/sim,internal/exec,internal/microfi,internal/faultmodel,internal/adaptive,internal/campaign,internal/flow,internal/service,internal/harden,internal/advisor,internal/fleet,internal/ace,internal/cliutil,internal/uop,internal/funcsim,internal/softfi,internal/device,client"

func main() {
	pkgsFlag := flag.String("pkgs", defaultPkgs,
		"comma-separated directories (relative to each root) to enforce the rules in")
	flag.Parse()

	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	pkgs := strings.Split(*pkgsFlag, ",")

	var files []string
	for _, root := range roots {
		root = strings.TrimSuffix(root, "/...")
		if root == "" {
			root = "."
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			if inPkgs(root, path, pkgs) {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "relint: %v\n", err)
			os.Exit(2)
		}
	}
	sort.Strings(files)

	fset := token.NewFileSet()
	var findings []finding
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "relint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, checkFile(fset, f)...)
	}
	for _, fd := range findings {
		fmt.Printf("%s: %s: %s\n", fd.pos, fd.rule, fd.msg)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// inPkgs reports whether path (a file under root) lies inside one of the
// enforced package directories. Subdirectories of an enforced directory are
// enforced too.
func inPkgs(root, path string, pkgs []string) bool {
	rel, err := filepath.Rel(root, filepath.Dir(path))
	if err != nil {
		return false
	}
	rel = filepath.ToSlash(rel)
	for _, p := range pkgs {
		p = strings.Trim(strings.TrimSpace(p), "/")
		if p == "" {
			continue
		}
		if rel == p || strings.HasSuffix(rel, "/"+p) || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

type finding struct {
	pos  token.Position
	rule string
	msg  string
}

// randAllowed are math/rand functions that construct seeded sources rather
// than draw from the global one.
var randAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// wallclockBanned are time-package functions that read the wall clock.
var wallclockBanned = map[string]bool{"Now": true, "Since": true, "Until": true}

// checkFile runs all rules over one parsed file.
func checkFile(fset *token.FileSet, f *ast.File) []finding {
	var out []finding

	// Lines carrying (or directly preceding) a //relint:allow comment.
	allowed := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "relint:allow") {
				line := fset.Position(c.Pos()).Line
				allowed[line] = true
				allowed[line+1] = true
			}
		}
	}
	emit := func(pos token.Pos, rule, format string, args ...any) {
		p := fset.Position(pos)
		if allowed[p.Line] {
			return
		}
		out = append(out, finding{pos: p, rule: rule, msg: fmt.Sprintf(format, args...)})
	}

	// Local names of the time and math/rand imports (usually "time"/"rand",
	// but aliases count too).
	timeName, randName := "", ""
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch path {
		case "time":
			timeName = orDefault(name, "time")
		case "math/rand", "math/rand/v2":
			randName = orDefault(name, "rand")
		}
	}

	mapIdents := collectMapIdents(f)

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Obj != nil { // id.Obj != nil means a local shadows the package
				return true
			}
			if timeName != "" && id.Name == timeName && wallclockBanned[sel.Sel.Name] {
				emit(n.Pos(), "wallclock",
					"%s.%s breaks replayability; thread an explicit timestamp in", timeName, sel.Sel.Name)
			}
			if randName != "" && id.Name == randName && !randAllowed[sel.Sel.Name] {
				emit(n.Pos(), "global-rand",
					"%s.%s draws from the shared global source; use a *rand.Rand from rand.New(rand.NewSource(seed))", randName, sel.Sel.Name)
			}
		case *ast.RangeStmt:
			if !isMapExpr(n.X, mapIdents) {
				return true
			}
			if sink := orderSensitiveSink(n.Body); sink != "" {
				emit(n.Pos(), "map-order",
					"map iteration order is randomized but the loop body feeds %s; iterate sorted keys instead", sink)
			}
		}
		return true
	})
	return out
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// collectMapIdents gathers names syntactically known to hold maps: explicit
// map-typed declarations, parameters and results, and assignments from
// make(map...) or map composite literals. Purely lexical — a name declared a
// map anywhere in the file counts everywhere — which errs toward reporting;
// //relint:allow covers deliberate order-insensitive iteration.
func collectMapIdents(f *ast.File) map[string]bool {
	idents := map[string]bool{}
	addFieldList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			if _, ok := fld.Type.(*ast.MapType); ok {
				for _, nm := range fld.Names {
					idents[nm.Name] = true
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if _, ok := n.Type.(*ast.MapType); ok {
				for _, nm := range n.Names {
					idents[nm.Name] = true
				}
			}
			for i, v := range n.Values {
				if i < len(n.Names) && isMapRValue(v) {
					idents[n.Names[i].Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || !isMapRValue(rhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					idents[id.Name] = true
				}
			}
		case *ast.FuncType:
			addFieldList(n.Params)
			addFieldList(n.Results)
		case *ast.StructType:
			addFieldList(n.Fields)
		}
		return true
	})
	return idents
}

// isMapRValue reports whether the expression syntactically produces a map.
func isMapRValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			_, isMap := e.Args[0].(*ast.MapType)
			return isMap
		}
	case *ast.CompositeLit:
		_, isMap := e.Type.(*ast.MapType)
		return isMap
	}
	return false
}

// isMapExpr reports whether a range operand is syntactically a map: a literal
// map expression, or a bare identifier / trailing selector whose name was
// declared with map type somewhere in the file.
func isMapExpr(e ast.Expr, mapIdents map[string]bool) bool {
	if isMapRValue(e) {
		return true
	}
	switch e := e.(type) {
	case *ast.Ident:
		return mapIdents[e.Name]
	case *ast.SelectorExpr:
		return mapIdents[e.Sel.Name]
	}
	return false
}

// orderSensitiveSink scans a map-range body for constructs whose result
// depends on iteration order, returning a description of the first one.
func orderSensitiveSink(body *ast.BlockStmt) string {
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" {
				sink = "append"
			}
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			if id, ok := fun.X.(*ast.Ident); ok && id.Obj == nil && id.Name == "fmt" {
				sink = "fmt." + name
				return false
			}
			if strings.HasPrefix(name, "Write") { // Write, WriteString, WriteByte, ...
				sink = name
			}
		}
		return sink == ""
	})
	return sink
}
