package obs

// Leveled logging (DESIGN.md §14). The stack's ad-hoc log.Printf call
// sites (WAL seal reasons, slow queries, chunk-decode failures, cluster
// hint drops) funnel through one small leveled logger so chaos and soak
// runs can silence noise with -log-level and tests can capture warnings
// by swapping the output writer. Level checks are a single atomic load;
// a suppressed line formats nothing.

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LogLevel orders log severities. Off suppresses everything.
type LogLevel int32

const (
	LevelDebug LogLevel = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

func (l LogLevel) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	case LevelOff:
		return "off"
	}
	return "unknown"
}

// ParseLogLevel maps a -log-level flag value to a LogLevel.
func ParseLogLevel(s string) (LogLevel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "", "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off", "none":
		return LevelOff, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (debug, info, warn, error, off)", s)
}

// Logger writes leveled, timestamped lines to one writer. All methods
// are safe for concurrent use.
type Logger struct {
	level atomic.Int32
	mu    sync.Mutex
	out   io.Writer
}

// NewLogger returns a logger writing lines at or above level to w.
func NewLogger(w io.Writer, level LogLevel) *Logger {
	l := &Logger{out: w}
	l.level.Store(int32(level))
	return l
}

// SetLevel changes the minimum level emitted.
func (l *Logger) SetLevel(level LogLevel) { l.level.Store(int32(level)) }

// SetOutput swaps the destination writer, returning the previous one
// (tests capture warnings by installing a buffer and restoring after).
func (l *Logger) SetOutput(w io.Writer) io.Writer {
	l.mu.Lock()
	prev := l.out
	l.out = w
	l.mu.Unlock()
	return prev
}

// Logf emits one line at the given level if it clears the threshold.
func (l *Logger) Logf(level LogLevel, format string, args ...any) {
	if int32(level) < l.level.Load() || level >= LevelOff {
		return
	}
	line := fmt.Sprintf("%s %s %s\n",
		time.Now().UTC().Format("2006-01-02T15:04:05.000Z"),
		strings.ToUpper(level.String()),
		fmt.Sprintf(format, args...))
	l.mu.Lock()
	if l.out != nil {
		io.WriteString(l.out, line)
	}
	l.mu.Unlock()
}

// std is the process-wide default logger the stack's components share.
var std = NewLogger(os.Stderr, LevelInfo)

// Log returns the process-wide default logger.
func Log() *Logger { return std }

// SetLogLevel sets the default logger's threshold (the -log-level flag).
func SetLogLevel(level LogLevel) { std.SetLevel(level) }

// Warnf logs to the default logger at warn level.
func Warnf(format string, args ...any) { std.Logf(LevelWarn, format, args...) }

// Errorf logs to the default logger at error level.
func Errorf(format string, args ...any) { std.Logf(LevelError, format, args...) }
