package hpm

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LIKWID ships its performance groups as text files in per-architecture
// directories (groups/<ARCH>/<NAME>.txt) and sites add their own. This file
// provides the same mechanism: a GroupSet combines the built-in groups with
// groups loaded from disk, and the collector/session layers accept either.

// GroupSet is a named collection of performance groups. The zero value is
// empty; Builtin() returns the shipped set.
type GroupSet struct {
	groups map[string]*Group
}

// Builtin returns a set containing the built-in groups.
func Builtin() *GroupSet {
	gs := &GroupSet{groups: make(map[string]*Group, len(builtinGroups))}
	for name, g := range builtinGroups {
		gs.groups[name] = g
	}
	return gs
}

// Add registers a group, replacing any previous group of the same name
// (site-local overrides of shipped groups, as LIKWID allows).
func (gs *GroupSet) Add(g *Group) {
	if gs.groups == nil {
		gs.groups = make(map[string]*Group)
	}
	gs.groups[g.Name] = g
}

// Lookup resolves a group by name.
func (gs *GroupSet) Lookup(name string) (*Group, error) {
	g, ok := gs.groups[name]
	if !ok {
		return nil, fmt.Errorf("hpm: unknown performance group %q", name)
	}
	return g, nil
}

// LoadDir parses every "*.txt" file in dir as a group file (the group name
// is the file name without extension, uppercased like LIKWID's) and adds
// the groups to the set. Returns the loaded names. Files that fail to
// parse abort the load with a descriptive error.
func (gs *GroupSet) LoadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("hpm: %w", err)
	}
	var loaded []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".txt") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		text, err := os.ReadFile(path)
		if err != nil {
			return loaded, fmt.Errorf("hpm: %w", err)
		}
		name := strings.ToUpper(strings.TrimSuffix(e.Name(), ".txt"))
		g, err := ParseGroup(name, string(text))
		if err != nil {
			return loaded, fmt.Errorf("hpm: %s: %w", path, err)
		}
		gs.Add(g)
		loaded = append(loaded, name)
	}
	sort.Strings(loaded)
	return loaded, nil
}
