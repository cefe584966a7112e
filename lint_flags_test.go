package medsec_test

// The flag-default drift lint: the design knobs shared by several lab
// CLIs (channel loss, TX distance, ARQ policy, clock, Vdd, digit
// width, residual imbalance, acquisition lane width) must take their
// flag defaults from the
// internal/design constants, never from a re-typed literal. Before
// the design layer existed, eccsim and linklab each carried their own
// copy of the paper's operating point, and a one-character typo in
// one of them would silently fork the published tables. Structurally
// (go/ast): every flag definition with one of the shared names must
// reference the design package in its default expression.
//
// The companion test pins the cmd/ roster itself, so a new lab CLI
// cannot appear without being swept into these lints (and into the CI
// smoke matrix that runs each one).

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// expectedCmds is the full cmd/ roster. Adding a command? Add it
// here, give it in-process Go tests on its run, and keep its flag
// defaults on the design constants.
var expectedCmds = []string{
	"designlab", "eccsim", "fleetlab", "linklab", "reportgen", "scalab",
}

func TestCmdRosterPinned(t *testing.T) {
	var got []string
	for cmd := range cmdGoFiles(t) {
		got = append(got, cmd)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(expectedCmds, ",") {
		t.Fatalf("cmd/ roster drifted:\n got %v\nwant %v\n(update expectedCmds, the command's tests, and the flag lint together)", got, expectedCmds)
	}
}

// sharedKnobFlags maps a flag name to the fs.* definition methods it
// is checked on and the package its default must reference. "d" is
// only checked for Int definitions: a String "d" is a grid *axis
// list* (designlab), not a single operating point. Most knobs live in
// internal/design; attack-layer knobs (preprocess) take their
// defaults from internal/sca.
var sharedKnobFlags = map[string]struct {
	methods []string
	pkg     string
}{
	"loss":                {[]string{"String", "Float64"}, "design"},
	"dist":                {[]string{"String", "Float64"}, "design"},
	"tries":               {[]string{"Int"}, "design"},
	"budget":              {[]string{"Int"}, "design"},
	"clock":               {[]string{"Float64"}, "design"},
	"vdd":                 {[]string{"Float64"}, "design"},
	"residual":            {[]string{"Float64"}, "design"},
	"channel":             {[]string{"String"}, "design"},
	"d":                   {[]string{"Int"}, "design"},
	"checkpoint-interval": {[]string{"Int"}, "design"},
	"lanes":               {[]string{"Int"}, "design"},
	"masking":             {[]string{"String"}, "design"},
	"preprocess":          {[]string{"String"}, "sca"},
}

func TestSharedFlagDefaultsComeFromDesign(t *testing.T) {
	fset := token.NewFileSet()
	for _, files := range cmdGoFiles(t) {
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) < 2 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				knob, shared := sharedKnobFlags[name]
				if !shared {
					return true
				}
				matched := false
				for _, m := range knob.methods {
					if sel.Sel.Name == m {
						matched = true
					}
				}
				if !matched {
					return true
				}
				if !referencesPackage(call.Args[1], knob.pkg) {
					t.Errorf("%s: flag %q default %s re-types a literal; use the internal/%s constant",
						fset.Position(call.Pos()), name, exprString(call.Args[1]), knob.pkg)
				}
				return true
			})
		}
	}
}

// referencesPackage reports whether the expression mentions pkg.Xxx
// anywhere (the default may be wrapped, e.g. a conversion).
func referencesPackage(e ast.Expr, pkg string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
				found = true
			}
		}
		return true
	})
	return found
}

func exprString(e ast.Expr) string {
	if lit, ok := e.(*ast.BasicLit); ok {
		return lit.Value
	}
	return "<expr>"
}
