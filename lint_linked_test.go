package medsec_test

// The linkage lint: every function a non-test file of this module
// declares must be linked into one of its binaries (the cmds, the
// examples and the bench module's runner). A function that only a test
// reaches is code a reader takes for part of the simulator while no
// experiment runs it. Such a function either moves into a _test.go file
// of its package (a reference other code is checked against), is
// deleted with its tests (a feature nothing runs), or is named in
// unlinkedAllowed with the test outside its package that needs it.
//
// Every binary is built with inlining off in this module
// (-gcflags=medsec/...=-l), so a call the compiler would inline still
// leaves the callee's symbol, and `go tool nm` lists exactly the
// functions the linker kept. Generic instantiations (F[...]) and the
// closures and wrappers a function owns (F.func1, F.deferwrap1,
// F.gowrap1, M-fm) count for the function that declares them.

import (
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// unlinkedAllowed names the functions no binary links that stay in a
// non-test file. Each reason names the test outside the function's
// package that calls it, or why it stays without one. A reference only
// its own package's tests use belongs in a _test.go file instead. An
// entry that becomes linked, or whose function is gone, fails the lint.
var unlinkedAllowed = map[string]string{
	"internal/gf2m.ShlMod":     "coproc's MALU oracle (digit_test.go, FuzzMALUMatchesReference)",
	"internal/gf2m.FromUint64": "small field constants in the coproc and ec tests",
	// clmul_noasm.go builds off amd64 only, where the false constant
	// hasCLMUL keeps the linker from ever reaching these stubs. On
	// amd64 the same names are assembly, which the lint skips.
	"internal/gf2m.mulCLMUL":              "stub behind hasCLMUL = false",
	"internal/gf2m.sqrCLMUL":              "stub behind hasCLMUL = false",
	"internal/gf2m.mulAccCLMUL":           "stub behind hasCLMUL = false",
	"internal/gf2m.reduceCLMUL":           "stub behind hasCLMUL = false",
	"internal/modn.MustScalarFromHex":     "fixed scalars in the coproc and ec tests",
	"internal/modn.Modulus.Neg":           "negated scalars in the ec tests",
	"internal/power.UnprotectedChip":      "trace's lane tests (lane_test.go)",
	"internal/power.ProtectedChip":        "the trace and sca tests' lab configurations, design's TestDefaultsMatchProtectedChip",
	"internal/power.Model.CyclePower":     "trace's per-cycle reference probe (oracle_test.go)",
	"internal/trace.NewOnlineStats":       "the campaign engine's tests fold into it",
	"internal/trace.OnlineStats.Mean":     "the campaign engine's tests read it",
	"internal/trace.OnlineStats.Variance": "the campaign engine's tests read it",
	"internal/sca.VerifyConstantTime":     "the root integration test",
	"internal/sca.SuccessRateCurve":       "kept for E2's verdicts over many keys (ROADMAP); sca_test.go calls it",
	"internal/coproc.CPU.FlipBit":         "fault's RunWithFault oracle (fault_ref_test.go)",
	"internal/link.Endpoint.RetriesLeft":  "protocol's transport tests (transport_test.go)",
}

// modulePath is the import path prefix of this module's packages.
const modulePath = "medsec"

// funcKey names a function as unlinkedAllowed does: the package's path
// in the module, then the receiver's base type for a method, then the
// name ("internal/modn.Modulus.Neg").
func funcKey(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkg + "." + fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
			continue
		case *ast.IndexExpr:
			typ = x.X
			continue
		case *ast.IndexListExpr:
			typ = x.X
			continue
		}
		break
	}
	return pkg + "." + typ.(*ast.Ident).Name + "." + fn.Name.Name
}

var (
	typeArgs      = regexp.MustCompile(`\[[^\[\]]*\]`)
	closureSuffix = regexp.MustCompile(`^((func|deferwrap|gowrap)\d+|\d*)$`)
)

// symbolKey maps a text symbol of `go tool nm` to the funcKey of the
// function that declares it, or "" for a symbol outside this module.
// A main package's symbols carry the name "main"; mainPkg is the
// package the binary was built from.
func symbolKey(sym, mainPkg string) string {
	for typeArgs.MatchString(sym) {
		sym = typeArgs.ReplaceAllString(sym, "")
	}
	sym = strings.TrimSuffix(sym, "-fm")
	var pkg string
	switch {
	case strings.HasPrefix(sym, "main."):
		pkg, sym = mainPkg, strings.TrimPrefix(sym, "main.")
	case strings.HasPrefix(sym, modulePath+"/"):
		slash := strings.LastIndex(sym, "/")
		dot := strings.IndexByte(sym[slash:], '.')
		if dot < 0 {
			return ""
		}
		pkg, sym = sym[len(modulePath)+1:slash+dot], sym[slash+dot+1:]
	default:
		return ""
	}
	if strings.HasPrefix(sym, "(") { // (*T).M or (T).M
		end := strings.IndexByte(sym, ')')
		recv := strings.TrimPrefix(sym[1:end], "*")
		method, _, _ := strings.Cut(strings.TrimPrefix(sym[end+1:], "."), ".")
		return pkg + "." + recv + "." + method
	}
	parts := strings.Split(sym, ".")
	if len(parts) > 1 && !closureSuffix.MatchString(parts[1]) {
		return pkg + "." + parts[0] + "." + parts[1] // T.M
	}
	return pkg + "." + parts[0]
}

// textSymbol returns the name on a `go tool nm` line of a text (code)
// symbol: everything after the address and the type letter. A generic
// instantiation over a struct shape carries spaces in its name
// ("campaign.Run[go.shape.struct { … },…]"), so the name is the rest
// of the line, not one field.
func textSymbol(line string) (string, bool) {
	_, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
	typ, name, ok := strings.Cut(rest, " ")
	return name, ok && (typ == "T" || typ == "t") && name != ""
}

// goTool runs the go command in dir and returns its standard output.
func goTool(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// declaredFuncs parses the non-test files in dir that build for this
// GOOS/GOARCH and returns each function's position by funcKey; a
// function without a body (an assembly routine) maps to "".
func declaredFuncs(t *testing.T, fset *token.FileSet, pkg, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]string{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			t.Fatal(err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name != "_" {
				pos := ""
				if fn.Body != nil {
					pos = fset.Position(fn.Pos()).String()
				}
				decls[funcKey(pkg, fn)] = pos
			}
		}
	}
	return decls
}

func TestEveryFunctionIsLinked(t *testing.T) {
	// Parse every source in process, the bench module's too: go test
	// caches this test's result on the files it opens, and the test
	// binary imports none of the main packages.
	fset := token.NewFileSet()
	declared := map[string]string{}
	var mains []string
	list := goTool(t, ".", "list", "-f", "{{.ImportPath}} {{.Name}} {{.Dir}}", "./...")
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		f := strings.SplitN(line, " ", 3) // import path, package name, directory
		if f[1] == "main" {
			mains = append(mains, f[0])
		}
		for k, pos := range declaredFuncs(t, fset, strings.TrimPrefix(f[0], modulePath+"/"), f[2]) {
			declared[k] = pos
		}
	}
	declaredFuncs(t, fset, "bench", "bench")

	// -ldflags=-w skips the DWARF tables, half of the link time; nm
	// reads the symbol table, which stays.
	bin := t.TempDir()
	flags := []string{"build", "-gcflags=" + modulePath + "/...=-l", "-ldflags=-w"}
	goTool(t, ".", append(flags, append([]string{"-o", bin + string(filepath.Separator)}, mains...)...)...)
	goTool(t, "bench", append(flags, "-o", filepath.Join(bin, "bench"), ".")...)

	mainPkg := map[string]string{"bench": "bench"}
	for _, m := range mains {
		mainPkg[path.Base(m)] = strings.TrimPrefix(m, modulePath+"/")
	}
	linked := map[string]bool{}
	for exe, pkg := range mainPkg {
		nm := goTool(t, ".", "tool", "nm", filepath.Join(bin, exe))
		for _, line := range strings.Split(string(nm), "\n") {
			if sym, ok := textSymbol(line); ok {
				if k := symbolKey(sym, pkg); k != "" {
					linked[k] = true
				}
			}
		}
	}

	var unlinked []string
	for k, pos := range declared {
		if pos != "" && !linked[k] && unlinkedAllowed[k] == "" {
			unlinked = append(unlinked, pos+": "+k)
		}
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("%s is linked into no binary: delete it, move it into a _test.go file if only its package's tests use it, or name the test outside its package that needs it in unlinkedAllowed", u)
	}
	for k := range unlinkedAllowed {
		pos, ok := declared[k]
		switch {
		case !ok:
			t.Errorf("unlinkedAllowed names %s, which no longer exists: drop the entry", k)
		case pos != "" && linked[k]:
			t.Errorf("unlinkedAllowed names %s, which a binary now links: drop the entry", k)
		}
	}
	if len(unlinked) > 0 {
		t.Logf("%d unlinked functions", len(unlinked))
	}
}

// TestTextSymbolKeepsStructShapes pins the nm line parse on the names
// a whitespace split would drop: an instantiation over a struct shape
// keeps its whole name and maps to the function declaring it.
func TestTextSymbolKeepsStructShapes(t *testing.T) {
	for _, tc := range []struct {
		line, want string
	}{
		{"  4c8e20 T medsec/internal/campaign.Run[go.shape.struct { medsec/internal/sca.key medsec/internal/modn.Scalar; medsec/internal/sca.dev uint64 },go.shape.struct { Samples []float64; StartCycle int },go.shape.*uint8]",
			"internal/campaign.Run"},
		{"  51a0c0 t medsec/internal/trace.(*Welch[go.shape.struct { medsec/internal/trace.n int; medsec/internal/trace.mean []float64 },go.shape.*uint8]).AddA",
			"internal/trace.Welch.AddA"},
		{"  401000 T medsec/internal/gf2m.Mul", "internal/gf2m.Mul"},
		{"  5f0000 D medsec/internal/gf2m.sqrTable", ""},
		{"         U runtime.memmove", ""},
	} {
		sym, ok := textSymbol(tc.line)
		got := ""
		if ok {
			got = symbolKey(sym, "cmd/scalab")
		}
		if got != tc.want {
			t.Errorf("%q: key %q, want %q", tc.line, got, tc.want)
		}
	}
}
