package reactivenoc_test

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"reactivenoc/internal/coherence"
	"reactivenoc/internal/config"
	"reactivenoc/internal/core"
	"reactivenoc/internal/workload"
)

// deadNames are the names the docs cite outside a "Decision record"
// section that no live code declares. The list may only shrink: an entry
// that resolves again, or that no doc cites any more, fails the test until
// it is deleted here. A flag is keyed "<binary> -<flag>".
var deadNames = map[string]bool{
	"Pin": true, "Pout": true, // the paper's port notation
	"coherence.Prefill": true,
	"Reset":             true,
	"pol.Run":           true,
	"Observe":           true,
	"rcsim -nopool":     true,
}

// TestDocsNameLiveCode: every exported name README.md, DESIGN.md and
// EXPERIMENTS.md put in backticks resolves — to a declaration in the
// repository (tests included), to the standard library, or to a preset,
// workload, policy or message name — and every -flag shown after one of
// the repository's binaries is declared in that binary's main package.
// Names of removed code may appear only under a "Decision record" heading
// or in a bullet that opens with one in bold.
func TestDocsNameLiveCode(t *testing.T) {
	idx := indexRepo(t)
	flags := binaryFlags(t)
	seen := map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		for _, ref := range docRefs(t, doc) {
			var dead bool
			if ref.binary != "" {
				dead = !flags[ref.binary][ref.name]
				ref.name = ref.binary + " -" + ref.name
			} else {
				dead = !idx.resolves(ref.name)
			}
			switch {
			case !dead || ref.decision:
			case deadNames[ref.name]:
				seen[ref.name] = true
			default:
				t.Errorf("%s:%d: `%s` names no live code; fix it, or move it under a Decision record heading",
					doc, ref.line, ref.name)
			}
		}
	}
	for name := range deadNames {
		if !seen[name] {
			t.Errorf("deadNames lists `%s`, which no doc cites as dead any more; delete the entry", name)
		}
	}
}

// TestNamesDeclaredOnce: the preset, workload and policy tables share one
// name space — no name is declared twice, within a table or across them —
// and every adversarial generator, phased's quiet half included, resolves
// through workload.ByName.
func TestNamesDeclaredOnce(t *testing.T) {
	var names []string
	names = append(names, config.RegisteredNames()...)
	for _, p := range workload.All() {
		names = append(names, p.Name)
	}
	names = append(names, core.PolicyNames()...)
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("%q is declared twice", n)
		}
		seen[n] = true
	}
	gens := workload.Generators()
	for _, g := range gens {
		if p, ok := workload.ByName(g.Name); !ok || p != g {
			t.Errorf("generator %s does not resolve to itself through ByName", g.Name)
		}
		if g.PhaseNext != "" {
			if _, ok := workload.ByName(g.PhaseNext); !ok {
				t.Errorf("generator %s's successor %s does not resolve", g.Name, g.PhaseNext)
			}
		}
	}
	if len(gens) != 5 {
		t.Errorf("%d generators, want 5", len(gens))
	}
}

// docRef is one checked mention: an identifier, or a flag of binary.
type docRef struct {
	name, binary string
	line         int
	decision     bool // inside a Decision record section
}

var (
	spanRE  = regexp.MustCompile("`([^`\n]+)`")
	identRE = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
	flagRE  = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(=.*)?$`)
)

// docRefs scans a markdown file for backticked identifiers and for flags
// after a binary name, in code spans and fenced blocks alike.
func docRefs(t *testing.T, doc string) []docRef {
	f, err := os.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var (
		refs      []docRef
		fenced    bool
		decLevel  int  // heading level of the open Decision record; 0 = none
		decBullet bool // inside a "* **Decision record…" bullet
		cont      string
	)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced && strings.HasPrefix(line, "#") {
			level := len(line) - len(strings.TrimLeft(line, "#"))
			if decLevel > 0 && level <= decLevel {
				decLevel = 0
			}
			if strings.Contains(strings.ToLower(line), "decision record") {
				decLevel = level
			}
		}
		if !fenced && (line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "* ") || strings.HasPrefix(line, "- ")) {
			decBullet = strings.Contains(line, "**Decision record")
		}
		dec := decLevel > 0 || decBullet
		if fenced {
			// A shell line continues past a trailing backslash.
			if strings.HasSuffix(line, "\\") {
				cont += strings.TrimSuffix(line, "\\") + " "
				continue
			}
			refs = append(refs, commandFlags(cont+line, n, dec)...)
			cont = ""
			continue
		}
		for _, m := range spanRE.FindAllStringSubmatch(line, -1) {
			span := m[1]
			refs = append(refs, commandFlags(span, n, dec)...)
			if i := strings.IndexByte(span, '('); i > 0 {
				span = span[:i]
			}
			if identRE.MatchString(span) && checkedIdent(span) {
				refs = append(refs, docRef{name: span, line: n, decision: dec})
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return refs
}

// checkedIdent reports whether a dotted identifier is one the test
// resolves: it names something exported, optionally behind a lower-case
// package qualifier, and is neither an all-caps word (a message, an HTTP
// method, an environment variable) nor a file name.
func checkedIdent(s string) bool {
	parts := strings.Split(s, ".")
	switch parts[len(parts)-1] {
	case "go", "md", "json", "sh", "yml", "rctf", "txt":
		return false
	}
	if strings.ToUpper(s) == s {
		return false
	}
	first := parts[0]
	if token.IsExported(first) {
		return true
	}
	return len(parts) > 1 && token.IsExported(parts[1])
}

// commandFlags returns the flags given to each of the repository's
// binaries a shell fragment invokes.
func commandFlags(cmd string, line int, dec bool) []docRef {
	var refs []docRef
	bin := ""
	for _, tok := range strings.Fields(cmd) {
		switch {
		case strings.ContainsAny(tok[:1], "|;&<>#$") || strings.HasPrefix(tok, "2>"):
			bin = ""
		case binaries[filepath.Base(tok)] && (tok == filepath.Base(tok) || strings.Contains(tok, "/")):
			bin = filepath.Base(tok)
		case bin != "":
			if m := flagRE.FindStringSubmatch(tok); m != nil {
				refs = append(refs, docRef{name: m[1], binary: bin, line: line, decision: dec})
			}
		}
	}
	return refs
}

// binaries are the repository's commands, by the name they build to.
var binaries = func() map[string]bool {
	bins := map[string]bool{}
	for _, pattern := range []string{"cmd/*/main.go", "benchmark/cmd/*/main.go"} {
		mains, _ := filepath.Glob(pattern)
		for _, m := range mains {
			bins[filepath.Base(filepath.Dir(m))] = true
		}
	}
	return bins
}()

// flagFuncs are the flag package's definers, by whether the name is the
// second argument (the Var forms) or the first.
var flagFuncs = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0,
	"Float64": 0, "Duration": 0, "Func": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
	"StringVar": 1, "Float64Var": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
}

// binaryFlags finds, with go/parser, every flag each binary declares: the
// literal names its main package passes to the flag package, plus the
// profiling flags internal/prof adds under the name its main passes.
func binaryFlags(t *testing.T) map[string]map[string]bool {
	profFlags := map[string]bool{}
	collectFlags(t, "internal/prof", profFlags, nil)
	out := map[string]map[string]bool{}
	for bin := range binaries {
		dir := filepath.Join("cmd", bin)
		if _, err := os.Stat(dir); err != nil {
			dir = filepath.Join("benchmark", "cmd", bin)
		}
		set := map[string]bool{"h": true, "help": true}
		collectFlags(t, dir, set, profFlags)
		out[bin] = set
	}
	return out
}

func collectFlags(t *testing.T, dir string, set, profFlags map[string]bool) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	lit := func(e ast.Expr) (string, bool) {
		if bl, ok := e.(*ast.BasicLit); ok && bl.Kind == token.STRING {
			s, err := strconv.Unquote(bl.Value)
			return s, err == nil
		}
		return "", false
	}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "prof" && sel.Sel.Name == "Flags" && profFlags != nil {
				for f := range profFlags {
					set[f] = true
				}
				if name, ok := lit(call.Args[0]); ok {
					set[name] = true
				}
			}
			if i, ok := flagFuncs[sel.Sel.Name]; ok && len(call.Args) > i {
				if name, ok := lit(call.Args[i]); ok {
					set[name] = true
				}
			}
			return true
		})
	}
}

// repoIndex is every declaration in the repository's Go files, tests
// included, plus the standard library packages they import.
type repoIndex struct {
	pkgs    map[string][]*pkgIndex // by package name
	top     map[string]bool        // every top-level name
	members map[string]bool        // every field and method name
	tables  map[string]bool        // preset, workload, policy and message names
	stdlib  map[string]string      // imported standard package name -> path
}

// pkgIndex is one package's top-level names and its types' members.
type pkgIndex struct {
	top   map[string]bool
	types map[string]*typeIndex
}

// typeIndex is one named type's fields and methods — each with the name
// of its type when that is a named type, for chains like core.Options.NoPool
// — and the types it embeds.
type typeIndex struct {
	members map[string]string
	embeds  []string
}

func indexRepo(t *testing.T) *repoIndex {
	idx := &repoIndex{
		pkgs: map[string][]*pkgIndex{}, top: map[string]bool{}, members: map[string]bool{},
		tables: map[string]bool{}, stdlib: map[string]string{},
	}
	for _, n := range config.RegisteredNames() {
		idx.tables[n] = true
	}
	for _, p := range workload.All() {
		idx.tables[p.Name] = true
	}
	for _, n := range core.PolicyNames() {
		idx.tables[n] = true
	}
	for m := coherence.MsgGetS; m <= coherence.MsgFwdMiss; m++ {
		idx.tables[m.String()] = true
	}
	dirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range dirs {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for name, pkg := range pkgs {
			idx.add(strings.TrimSuffix(name, "_test"), pkg)
			for _, f := range pkg.Files {
				for _, imp := range f.Imports {
					path, _ := strconv.Unquote(imp.Path.Value)
					if !strings.Contains(strings.Split(path, "/")[0], ".") && !strings.HasPrefix(path, "reactivenoc") {
						idx.stdlib[filepath.Base(path)] = path
					}
				}
			}
		}
	}
	return idx
}

// add indexes one parsed package under name.
func (idx *repoIndex) add(name string, pkg *ast.Package) {
	p := &pkgIndex{top: map[string]bool{}, types: map[string]*typeIndex{}}
	idx.pkgs[name] = append(idx.pkgs[name], p)
	typ := func(n string) *typeIndex {
		if p.types[n] == nil {
			p.types[n] = &typeIndex{members: map[string]string{}}
		}
		return p.types[n]
	}
	member := func(ti *typeIndex, n, typeName string) {
		ti.members[n] = typeName
		idx.members[n] = true
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					p.top[d.Name.Name] = true
					idx.top[d.Name.Name] = true
					continue
				}
				member(typ(baseTypeName(d.Recv.List[0].Type)), d.Name.Name, "")
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						p.top[s.Name.Name] = true
						idx.top[s.Name.Name] = true
						ti := typ(s.Name.Name)
						var fields []*ast.Field
						switch tt := s.Type.(type) {
						case *ast.StructType:
							fields = tt.Fields.List
						case *ast.InterfaceType:
							fields = tt.Methods.List
						}
						for _, fld := range fields {
							if len(fld.Names) == 0 {
								ti.embeds = append(ti.embeds, baseTypeName(fld.Type))
								member(ti, baseTypeName(fld.Type), baseTypeName(fld.Type))
							}
							for _, n := range fld.Names {
								member(ti, n.Name, baseTypeName(fld.Type))
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							p.top[n.Name] = true
							idx.top[n.Name] = true
						}
					}
				}
			}
		}
	}
}

// baseTypeName is the named type under pointers, qualifiers and type
// arguments ("" for anything else).
func baseTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return baseTypeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return baseTypeName(x.X)
	case *ast.IndexListExpr:
		return baseTypeName(x.X)
	}
	return ""
}

// resolves reports whether a dotted name — Ident, pkg.Ident, Type.Member or
// longer chains — names live code.
func (idx *repoIndex) resolves(name string) bool {
	parts := strings.Split(name, ".")
	if pkgs, ok := idx.pkgs[parts[0]]; ok && len(parts) > 1 && !token.IsExported(parts[0]) {
		return idx.chain(pkgs, parts[1:])
	}
	if path, ok := idx.stdlib[parts[0]]; ok && len(parts) > 1 {
		std := idx.parseStd(path)
		return std.chain(std.pkgs[filepath.Base(path)], parts[1:])
	}
	if len(parts) == 1 {
		return idx.top[name] || idx.members[name] || idx.tables[name]
	}
	// Type.Member...: any package's type of that name will do.
	var all []*pkgIndex
	for _, ps := range idx.pkgs {
		all = append(all, ps...)
	}
	return idx.chain(all, parts)
}

// chain resolves parts[0] as a top-level name of one of pkgs and each
// later part as a member of the type the previous part names.
func (idx *repoIndex) chain(pkgs []*pkgIndex, parts []string) bool {
	for _, p := range pkgs {
		if !p.top[parts[0]] {
			continue
		}
		if len(parts) == 1 {
			return true
		}
		if idx.memberChain(p, parts[0], parts[1:]) {
			return true
		}
	}
	return false
}

// memberChain resolves parts as a member chain from type typeName, looked
// up in p first and, for a type p imports, in every package.
func (idx *repoIndex) memberChain(p *pkgIndex, typeName string, parts []string) bool {
	tis := []*typeIndex{p.types[typeName]}
	if tis[0] == nil {
		tis = tis[:0]
		for _, ps := range idx.pkgs {
			for _, q := range ps {
				if ti := q.types[typeName]; ti != nil {
					tis = append(tis, ti)
				}
			}
		}
	}
	for _, ti := range tis {
		if next, ok := ti.members[parts[0]]; ok && (len(parts) == 1 || idx.memberChain(p, next, parts[1:])) {
			return true
		}
		for _, e := range ti.embeds {
			if idx.memberChain(p, e, parts) {
				return true
			}
		}
	}
	return false
}

// parseStd indexes one standard library package.
func (idx *repoIndex) parseStd(path string) *repoIndex {
	dir := filepath.Join(build.Default.GOROOT, "src", path)
	pkgs, _ := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	std := &repoIndex{pkgs: map[string][]*pkgIndex{}, top: map[string]bool{}, members: map[string]bool{}}
	for name, pkg := range pkgs {
		std.add(name, pkg)
	}
	return std
}
