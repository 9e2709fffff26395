// The command surface the docs show must exist: every command line in a
// fenced code block of README.md, DESIGN.md and EXPERIMENTS.md, and every
// inline code span outside the fences, is checked against the flags its
// cmd/<c> defines, the -fig modes mgbench accepts, the internal/…, cmd/…
// and examples/… paths in the tree and the MG_* variables the program
// reads. The run: blocks of the CI workflow are held to the same flags
// and modes, and their go test -run/-fuzz patterns to the tests that
// exist.
package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var docsWithCommands = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

func TestDocsCommandSurface(t *testing.T) {
	flags := commandFlags(t)
	figs := mgbenchFigs(t)
	envVars := envVarsRead(t)
	pathRE := regexp.MustCompile(`(?:^|[\s"'(=\x60])(?:\./)?((?:internal|cmd|examples)/[\w./-]*)`)
	envRE := regexp.MustCompile(`\bMG_[A-Z0-9_]+`)
	for _, doc := range docsWithCommands {
		lines, err := codeLines(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lines {
			where := doc + ":" + strconv.Itoa(l.no)
			for _, m := range pathRE.FindAllStringSubmatch(l.text, -1) {
				p := strings.TrimRight(m[1], ".,;:)/")
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s: path %s does not exist", where, p)
				}
			}
			for _, v := range envRE.FindAllString(l.text, -1) {
				if !envVars[v] {
					t.Errorf("%s: no non-test Go file reads %s", where, v)
				}
			}
			checkCommandFlags(t, where, l.text, flags, figs)
		}
	}
	tests := testFuncs(t)
	for _, s := range ciSteps(t) {
		for _, l := range s.run {
			where := ciPath + ":" + strconv.Itoa(l.no)
			checkCommandFlags(t, where, l.text, flags, figs)
			checkTestPatterns(t, where, l.text, tests)
		}
	}
}

// checkCommandFlags checks the flags of every repository command on a
// shell line, and the mode of every mgbench -fig.
func checkCommandFlags(t *testing.T, where, line string, flags map[string]map[string]bool, figs map[string]bool) {
	t.Helper()
	for _, seg := range shellSegments(line) {
		cmd, args := commandOf(seg, flags)
		if cmd == "" {
			continue
		}
		for i, a := range args {
			name, value, hasValue := flagToken(a)
			if name == "" {
				continue
			}
			if !flags[cmd][name] {
				t.Errorf("%s: %s has no flag -%s", where, cmd, name)
			}
			if cmd != "mgbench" || name != "fig" {
				continue
			}
			if !hasValue && i+1 < len(args) {
				value = args[i+1]
			}
			if !figs[value] {
				t.Errorf("%s: mgbench accepts no -fig %q", where, value)
			}
		}
	}
}

// checkTestPatterns checks that every |-alternative of a `go test -run`
// or `-fuzz` pattern on a shell line matches a Test or Fuzz function of
// the packages the command names, so that a renamed test cannot leave a
// step running nothing. ^$ (run no tests) is exempt.
func checkTestPatterns(t *testing.T, where, line string, tests map[string][]string) {
	t.Helper()
	for _, seg := range shellSegments(line) {
		if len(seg) < 2 || seg[0] != "go" || seg[1] != "test" {
			continue
		}
		var dirs, patterns []string
		for i := 2; i < len(seg); i++ {
			a := seg[i]
			switch {
			case a == "./...":
				dirs = append(dirs, sortedKeys(tests)...)
			case a == "." || strings.HasPrefix(a, "./"):
				dirs = append(dirs, strings.TrimPrefix(a, "./"))
			case (a == "-run" || a == "-fuzz") && i+1 < len(seg):
				patterns = append(patterns, seg[i+1])
				i++
			case strings.HasPrefix(a, "-run=") || strings.HasPrefix(a, "-fuzz="):
				patterns = append(patterns, a[strings.Index(a, "=")+1:])
			}
		}
		for _, p := range patterns {
			for _, alt := range strings.Split(p, "|") {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: bad test pattern %q: %v", where, alt, err)
					continue
				}
				if !anyMatch(re, dirs, tests) {
					t.Errorf("%s: pattern %q matches no Test or Fuzz function in %v", where, alt, dirs)
				}
			}
		}
	}
}

func anyMatch(re *regexp.Regexp, dirs []string, tests map[string][]string) bool {
	for _, d := range dirs {
		for _, name := range tests[d] {
			if re.MatchString(name) {
				return true
			}
		}
	}
	return false
}

// testFuncs maps every directory to the Test and Fuzz functions its
// _test.go files declare.
func testFuncs(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil &&
				(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
				out[dir] = append(out[dir], fd.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

const ciPath = ".github/workflows/ci.yml"

// ciStep is one step of the CI workflow: its job, its name and the lines
// of its run block, backslash-continued lines joined.
type ciStep struct {
	job, name string
	run       []docLine
}

// ciSteps reads the steps of the workflow. It knows only the shape
// ci.yml has: jobs at two spaces of indentation, steps as list items, and
// run: as an inline scalar or a | block.
func ciSteps(t *testing.T) []ciStep {
	t.Helper()
	blob, err := os.ReadFile(ciPath)
	if err != nil {
		t.Fatal(err)
	}
	jobRE := regexp.MustCompile(`^  ([\w-]+):\s*$`)
	keyRE := regexp.MustCompile(`^(\s*)(- )?(name|run): ?(.*)$`)
	var steps []ciStep
	job := ""
	inJobs := false
	blockIndent := -1 // the indentation of the run key whose block is open
	cont := false
	unquote := func(s string) string {
		if u, err := strconv.Unquote(s); err == nil {
			return u
		}
		return s
	}
	for i, line := range strings.Split(string(blob), "\n") {
		indent := len(line) - len(strings.TrimLeft(line, " "))
		if blockIndent >= 0 {
			if strings.TrimSpace(line) == "" || indent > blockIndent {
				s := &steps[len(steps)-1]
				text := strings.TrimSuffix(strings.TrimSpace(line), "\\")
				if cont {
					s.run[len(s.run)-1].text += " " + text
				} else {
					s.run = append(s.run, docLine{i + 1, text})
				}
				cont = strings.HasSuffix(strings.TrimSpace(line), "\\")
				continue
			}
			blockIndent, cont = -1, false
		}
		if line == "jobs:" {
			inJobs = true
			continue
		}
		if !inJobs {
			continue
		}
		if m := jobRE.FindStringSubmatch(line); m != nil {
			job = m[1]
			continue
		}
		m := keyRE.FindStringSubmatch(line)
		if m == nil {
			if strings.HasPrefix(strings.TrimSpace(line), "- ") {
				steps = append(steps, ciStep{job: job})
			}
			continue
		}
		if m[2] != "" {
			steps = append(steps, ciStep{job: job})
		}
		if len(steps) == 0 || steps[len(steps)-1].job != job {
			continue
		}
		s := &steps[len(steps)-1]
		switch {
		case m[3] == "name":
			s.name = unquote(m[4])
		case m[4] == "|":
			blockIndent = len(m[1])
		default:
			s.run = append(s.run, docLine{i + 1, unquote(m[4])})
		}
	}
	if len(steps) < 10 {
		t.Fatalf("%s: found only %d steps", ciPath, len(steps))
	}
	return steps
}

type docLine struct {
	no   int
	text string
}

// codeLines returns the code of a markdown file: the lines inside ```
// fences, with backslash-continued lines joined onto their first line,
// then every inline code span outside them (a span may wrap onto the
// next line of its paragraph). A span that starts with -fig is an
// mgbench invocation.
func codeLines(path string) ([]docLine, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out, spans []docLine
	var span *docLine // the inline span open at the end of the last prose line
	inFence, cont := false, false
	for i, text := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(strings.TrimSpace(text), "```") {
			inFence, cont, span = !inFence, false, nil
			continue
		}
		if !inFence {
			if strings.TrimSpace(text) == "" {
				span = nil // spans end with their paragraph
			}
			for k, part := range strings.Split(text, "`") {
				switch {
				case k > 0 && span == nil:
					span = &docLine{i + 1, ""}
				case k > 0:
					if t, ok := strings.CutPrefix(span.text, "-fig "); ok {
						span.text = "mgbench -fig " + t
					}
					spans = append(spans, *span)
					span = nil
				}
				if span != nil {
					span.text += part
				}
			}
			if span != nil {
				span.text += " "
			}
			continue
		}
		joined := strings.TrimSuffix(strings.TrimRight(text, " "), "\\")
		if cont {
			out[len(out)-1].text += " " + joined
		} else {
			out = append(out, docLine{i + 1, joined})
		}
		cont = strings.HasSuffix(strings.TrimRight(text, " "), "\\")
	}
	return append(out, spans...), nil
}

// shellSegments splits a shell line into its simple commands (at |, &,
// ; and their doubled forms outside quotes), drops a trailing # comment
// and tokenizes each one on unquoted blanks, removing the quotes.
func shellSegments(line string) [][]string {
	var segs [][]string
	var cur []string
	var tok strings.Builder
	inTok := false
	var quote rune
	flushTok := func() {
		if inTok {
			cur = append(cur, tok.String())
		}
		tok.Reset()
		inTok = false
	}
	flushSeg := func() {
		flushTok()
		if len(cur) > 0 {
			segs = append(segs, cur)
		}
		cur = nil
	}
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				tok.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inTok = r, true
		case r == '#' && !inTok:
			flushSeg()
			return segs
		case r == '|' || r == '&' || r == ';':
			flushSeg()
		case r == ' ' || r == '\t':
			flushTok()
		default:
			tok.WriteRune(r)
			inTok = true
		}
	}
	flushSeg()
	return segs
}

// commandOf names the repository command a segment runs — `go run
// ./cmd/<c>`, `./<c>`, `cmd/<c>` or `<c>`, after any NAME=value prefixes — and
// returns its arguments; "" for any other command.
func commandOf(seg []string, flags map[string]map[string]bool) (string, []string) {
	for len(seg) > 0 && strings.Contains(seg[0], "=") && !strings.HasPrefix(seg[0], "-") {
		seg = seg[1:]
	}
	if len(seg) >= 3 && seg[0] == "go" && seg[1] == "run" {
		c := strings.TrimPrefix(strings.TrimPrefix(seg[2], "./"), "repro/")
		if name, ok := strings.CutPrefix(c, "cmd/"); ok && flags[name] != nil {
			return name, seg[3:]
		}
		return "", nil
	}
	if len(seg) > 0 {
		if name := strings.TrimPrefix(strings.TrimPrefix(seg[0], "./"), "cmd/"); flags[name] != nil {
			return name, seg[1:]
		}
	}
	return "", nil
}

// flagToken parses -name, --name and -name=value (brackets around an
// optional flag allowed); name is "" for anything else.
func flagToken(a string) (name, value string, hasValue bool) {
	a = strings.Trim(a, "[]")
	if !strings.HasPrefix(a, "-") {
		return "", "", false
	}
	a = strings.TrimPrefix(strings.TrimPrefix(a, "-"), "-")
	if a == "" || !(a[0] >= 'a' && a[0] <= 'z' || a[0] >= 'A' && a[0] <= 'Z') {
		return "", "", false
	}
	name, value, hasValue = strings.Cut(a, "=")
	return name, value, hasValue
}

// parseCmd parses the non-test Go files of cmd/<name>.
func parseCmd(t *testing.T, name string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("cmd", name, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// commandFlags maps every cmd/<c> to the flag names it defines through
// the flag package (plus the -h/-help every flag set accepts).
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]bool{}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		names := map[string]bool{"h": true, "help": true}
		for _, f := range parseCmd(t, d.Name()) {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
					return true
				}
				arg := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					arg = 1
				}
				if arg < len(call.Args) {
					if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if s, err := strconv.Unquote(lit.Value); err == nil {
							names[s] = true
						}
					}
				}
				return true
			})
		}
		out[d.Name()] = names
	}
	if len(out["mg"]) < 3 || len(out["mgbench"]) < 3 {
		t.Fatalf("flag extraction found too little: mg %v, mgbench %v", out["mg"], out["mgbench"])
	}
	return out
}

// mgbenchFigs returns the case labels of mgbench's switch on *fig.
func mgbenchFigs(t *testing.T) map[string]bool {
	t.Helper()
	figs := map[string]bool{}
	for _, f := range parseCmd(t, "mgbench") {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			star, ok := sw.Tag.(*ast.StarExpr)
			if !ok {
				return true
			}
			if id, ok := star.X.(*ast.Ident); !ok || id.Name != "fig" {
				return true
			}
			for _, s := range sw.Body.List {
				for _, e := range s.(*ast.CaseClause).List {
					if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						v, _ := strconv.Unquote(lit.Value)
						figs[v] = true
					}
				}
			}
			return false
		})
	}
	if !figs["11"] || !figs["all"] {
		t.Fatalf("mgbench -fig modes not found: %v", figs)
	}
	return figs
}

// envVarsRead returns the MG_* names quoted in non-test Go files.
func envVarsRead(t *testing.T) map[string]bool {
	t.Helper()
	re := regexp.MustCompile(`"(MG_[A-Z0-9_]+)"`)
	vars := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		blob, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range re.FindAllStringSubmatch(string(blob), -1) {
			vars[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return vars
}
