package repro_test

import (
	"bufio"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/experiments"
)

// docNotLinks lists the backticked hyphenated names DESIGN.md and README.md
// use that are none of the three things such a name is checked against (an
// invariant ID, a Makefile target, an experiment ID), each with what it is.
var docNotLinks = map[string]string{
	"sim-reliable":  "a cmd/mcastsim mode name (DESIGN §17)",
	"live-reliable": "a cmd/mcastsim mode name (DESIGN §17)",
}

var (
	docPath   = regexp.MustCompile(`\b(?:internal|cmd)/[a-z0-9_]+`)
	docMake   = regexp.MustCompile("`make ([^`]*)`")
	docName   = regexp.MustCompile("`([a-z][a-z0-9]*(?:-[a-z0-9]+)+)`")
	docTarget = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	makeRule  = regexp.MustCompile(`^([a-z][a-z0-9-]*):`)
)

// TestDocLinks holds DESIGN.md and README.md to the tree they describe:
// every internal/<pkg> and cmd/<bin> they mention is a directory, every
// `make <target>` (backticked, or a command line of a code block) is a
// Makefile target, and every backticked name shaped like an invariant ID
// is one — or a make target, or an experiment ID. A dangling name fails
// with its file and line.
func TestDocLinks(t *testing.T) {
	targets := map[string]bool{}
	mk, err := os.Open("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defer mk.Close()
	for sc := bufio.NewScanner(mk); sc.Scan(); {
		if m := makeRule.FindStringSubmatch(sc.Text()); m != nil {
			targets[m[1]] = true
		}
	}
	known := func(name string) bool {
		_, isInvariant := check.InvariantByID(name)
		_, isExperiment := experiments.ByID(name)
		_, isOther := docNotLinks[name]
		return isInvariant || isExperiment || isOther || targets[name]
	}
	used := map[string]bool{}

	for _, doc := range []string{"DESIGN.md", "README.md"} {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			for _, p := range docPath.FindAllString(text, -1) {
				if st, err := os.Stat(p); err != nil || !st.IsDir() {
					t.Errorf("%s:%d: %s is not a directory of this tree", doc, line, p)
				}
			}
			var makes []string
			for _, m := range docMake.FindAllStringSubmatch(text, -1) {
				makes = append(makes, m[1])
			}
			if cmd, ok := strings.CutPrefix(strings.TrimSpace(text), "make "); ok {
				makes = append(makes, cmd)
			}
			for _, args := range makes {
				for _, w := range strings.Fields(args) {
					if docTarget.MatchString(w) && !targets[w] {
						t.Errorf("%s:%d: make %s: no such Makefile target", doc, line, w)
					}
				}
			}
			for _, m := range docName.FindAllStringSubmatch(text, -1) {
				used[m[1]] = true
				if !known(m[1]) {
					t.Errorf("%s:%d: `%s` is not an invariant ID, a Makefile target or an experiment ID; fix the name, or list it in docNotLinks with what it is", doc, line, m[1])
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	for name := range docNotLinks {
		if !used[name] {
			t.Errorf("docNotLinks lists %s, which neither document names any more; drop the entry", name)
		}
	}
}
