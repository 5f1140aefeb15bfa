package lms

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdRefPattern matches documentation references like DESIGN.md,
// EXPERIMENTS.md or bench/README.md in Go sources and markdown, with the
// directory they are written under, if any: a reference resolves from the
// repo root (an absolute path is not a reference into the repo and is
// skipped). Doc files in this repo are upper-case by convention, which
// keeps the pattern from tripping over identifiers.
var mdRefPattern = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])((?:[A-Za-z0-9_.-]+/)*[A-Z][A-Za-z0-9_-]*\.md)\b`)

// externalRef reports whether a line marks its doc references as living
// outside this repository — "external", "related repo" or "related-repo"
// on the same line as the reference — so pointers into companion repos
// (external docs like COMPACTION_AND_RETENTION.md) are not broken links.
func externalRef(line string) bool {
	l := strings.ToLower(line)
	return strings.Contains(l, "external") ||
		strings.Contains(l, "related repo") ||
		strings.Contains(l, "related-repo")
}

// TestDocLinks fails when a *.md file referenced from Go comments or
// markdown does not exist in the repository, so documentation pointers
// (DESIGN.md, EXPERIMENTS.md, ...) cannot silently rot. References on
// lines marked external (see externalRef) are skipped. Run by CI as the
// doc-link check step.
func TestDocLinks(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string][]string{} // referenced name -> referencing files
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".claude" {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		if ext != ".go" && ext != ".md" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, line := range strings.Split(string(data), "\n") {
			if externalRef(line) {
				continue
			}
			for _, m := range mdRefPattern.FindAllStringSubmatch(line, -1) {
				refs[m[1]] = append(refs[m[1]], rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("no markdown references found; the scanner is broken")
	}
	for name, from := range refs {
		if _, err := os.Stat(filepath.Join(root, name)); err != nil {
			t.Errorf("%s is referenced by %s but does not exist at the repo root",
				name, strings.Join(dedupe(from), ", "))
		}
	}
}

func TestExternalRefMarkers(t *testing.T) {
	for _, tc := range []struct {
		line string
		want bool
	}{
		{"see DESIGN.md for the shard layout", false},
		{"cf. the external `docs/COMPACTION_AND_RETENTION.md`", true},
		{"COMPACTION_AND_RETENTION.md, a related-repo doc", true},
		{"a file in a related repo, not this one", true},
	} {
		if got := externalRef(tc.line); got != tc.want {
			t.Errorf("externalRef(%q) = %v, want %v", tc.line, got, tc.want)
		}
	}
}

func dedupe(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
