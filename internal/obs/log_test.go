package obs

import (
	"strings"
	"testing"
)

func TestParseLogLevel(t *testing.T) {
	cases := []struct {
		in   string
		want LogLevel
	}{
		{"debug", LevelDebug},
		{"", LevelInfo},
		{"info", LevelInfo},
		{"INFO", LevelInfo},
		{" warn ", LevelWarn},
		{"warning", LevelWarn},
		{"error", LevelError},
		{"off", LevelOff},
		{"none", LevelOff},
	}
	for _, c := range cases {
		got, err := ParseLogLevel(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseLogLevel(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseLogLevel("verbose"); err == nil {
		t.Fatal("unknown level accepted")
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, LevelWarn)
	l.Logf(LevelDebug, "quiet %d", 1)
	l.Logf(LevelInfo, "quiet %d", 2)
	l.Logf(LevelWarn, "loud %d", 3)
	l.Logf(LevelError, "loud %d", 4)
	out := sb.String()
	if strings.Contains(out, "quiet") {
		t.Fatalf("suppressed levels leaked: %q", out)
	}
	for _, want := range []string{"WARN loud 3\n", "ERROR loud 4\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Fatalf("want 2 lines, got %d: %q", lines, out)
	}

	l.SetLevel(LevelOff)
	if got := LogLevel(l.level.Load()); got != LevelOff {
		t.Fatalf("level = %v", got)
	}
	sb.Reset()
	l.Logf(LevelError, "still quiet")
	if sb.Len() != 0 {
		t.Fatalf("LevelOff emitted: %q", sb.String())
	}
}

func TestLoggerSetOutputAndDefault(t *testing.T) {
	var sb strings.Builder
	prev := Log().SetOutput(&sb)
	defer Log().SetOutput(prev)
	oldLevel := LogLevel(Log().level.Load())
	SetLogLevel(LevelDebug)
	defer SetLogLevel(oldLevel)

	std.Logf(LevelDebug, "d=%d", 1)
	std.Logf(LevelInfo, "i=%d", 2)
	Warnf("w=%d", 3)
	Errorf("e=%d", 4)
	out := sb.String()
	for _, want := range []string{"DEBUG d=1", "INFO i=2", "WARN w=3", "ERROR e=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("default logger missing %q: %q", want, out)
		}
	}
	// Every line is timestamped: 2006-01-02T15:04:05.000Z LEVEL msg
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if len(line) < 25 || line[4] != '-' || line[10] != 'T' || line[23] != 'Z' {
			t.Fatalf("line not timestamped: %q", line)
		}
	}

	// SetOutput returns the writer it replaced.
	var other strings.Builder
	if got := Log().SetOutput(&other); got != &sb {
		t.Fatalf("SetOutput returned %v, want the buffer", got)
	}
	Log().SetOutput(&sb)
}
