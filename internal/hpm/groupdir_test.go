package hpm

import (
	"os"
	"path/filepath"
	"testing"
)

const customGroupText = `SHORT Custom uops group

EVENTSET
FIXC0 INSTR_RETIRED_ANY
FIXC1 CPU_CLK_UNHALTED_CORE
PMC0 MEM_UOPS_RETIRED_LOADS

METRICS
Load MUOPS/s 1.0E-06*PMC0/time
CPI FIXC1/FIXC0

LONG
Site-local custom group.
`

func TestBuiltinGroupSet(t *testing.T) {
	gs := Builtin()
	if len(gs.Names()) != len(builtinGroups) {
		t.Fatalf("names %v", gs.Names())
	}
	g, err := gs.Lookup("FLOPS_DP")
	if err != nil || g.Name != "FLOPS_DP" {
		t.Fatal(err)
	}
	if _, err := gs.Lookup("NOPE"); err == nil {
		t.Fatal("unknown group accepted")
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "uops.txt"), []byte(customGroupText), 0o644); err != nil {
		t.Fatal(err)
	}
	// Non-group files are ignored.
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	gs := Builtin()
	loaded, err := gs.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0] != "UOPS" {
		t.Fatalf("loaded %v", loaded)
	}
	g, err := gs.Lookup("UOPS")
	if err != nil {
		t.Fatal(err)
	}
	if g.Short != "Custom uops group" || len(g.Metrics) != 2 {
		t.Fatalf("%+v", g)
	}
	// Loaded groups measure like built-ins.
	m, _ := NewMachine(testTopo())
	_ = m.SetRates(0, EventRates{
		"INSTR_RETIRED_ANY":      1e9,
		"CPU_CLK_UNHALTED_CORE":  2e9,
		"MEM_UOPS_RETIRED_LOADS": 5e8,
	})
	sess, err := NewSession(m, g, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	_ = sess.Start()
	_ = m.Advance(2)
	_ = sess.Stop()
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics[0]["Load MUOPS/s"]; got != 500 {
		t.Fatalf("MUOPS %v", got)
	}
}

func TestLoadDirOverridesBuiltin(t *testing.T) {
	dir := t.TempDir()
	override := `SHORT Overridden

EVENTSET
FIXC0 INSTR_RETIRED_ANY

METRICS
MIPS 1.0E-06*FIXC0/time
`
	if err := os.WriteFile(filepath.Join(dir, "clock.txt"), []byte(override), 0o644); err != nil {
		t.Fatal(err)
	}
	gs := Builtin()
	if _, err := gs.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	g, _ := gs.Lookup("CLOCK")
	if g.Short != "Overridden" {
		t.Fatalf("override failed: %q", g.Short)
	}
	// The global built-in table is untouched.
	orig := builtinGroups["CLOCK"]
	if orig.Short == "Overridden" {
		t.Fatal("builtin table mutated")
	}
}

func TestLoadDirErrors(t *testing.T) {
	gs := Builtin()
	if _, err := gs.LoadDir("/nonexistent-dir-xyz"); err == nil {
		t.Fatal("missing dir accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "broken.txt"), []byte("EVENTSET\nFIXC0 NO_SUCH\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := gs.LoadDir(dir); err == nil {
		t.Fatal("broken group accepted")
	}
}

func TestGroupSetZeroValue(t *testing.T) {
	var gs GroupSet
	if len(gs.Names()) != 0 {
		t.Fatal("zero set not empty")
	}
	g := group(t, "CLOCK")
	gs.Add(g)
	if got, err := gs.Lookup("CLOCK"); err != nil || got != g {
		t.Fatal("add to zero set")
	}
}
