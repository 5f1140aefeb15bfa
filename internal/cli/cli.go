// Package cli holds the shared command-line plumbing of the cmd/ binaries.
// Every main delegates to a testable run(args, stdout) error; this package
// provides the flag-parsing and exit-code conventions they share:
//
//   - -h/--help prints the usage on stdout and succeeds (exit 0),
//   - usage errors (unknown flag, missing required argument) print the flag
//     listing plus one error line to stderr and exit with status 2
//     (flag.ExitOnError's status),
//   - runtime errors go to stderr and exit with status 1,
//   - normal output never mixes with flag diagnostics, so stdout stays
//     pipeable,
//   - servers end on SIGINT/SIGTERM by draining their requests (Serve) and
//     then running what their main deferred.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// ErrUsage marks a command-line usage error; mains exit 2 for it.
var ErrUsage = errors.New("usage error")

// Usagef builds an error that unwraps to ErrUsage.
func Usagef(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrUsage, fmt.Sprintf(format, args...))
}

// Parse runs fs over args with the shared conventions. For -h/--help the
// usage is printed to stdout and done is true with a nil error. On a flag
// error the listing goes to stderr (so operators can discover valid flags
// while stdout stays clean) and the error comes back wrapped as ErrUsage.
func Parse(fs *flag.FlagSet, args []string, stdout io.Writer) (done bool, err error) {
	fs.SetOutput(io.Discard) // we place all diagnostics ourselves
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stdout)
			fs.Usage()
			return true, nil
		}
		return true, UsageErr(fs, "%v", err)
	}
	return false, nil
}

// SplitList splits a comma-separated flag value into its non-empty,
// space-trimmed elements (the -cluster-peers convention). An empty value
// yields nil.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// UsageErr prints fs's flag listing to stderr and returns a usage error for
// main to report (exit status 2). For explicit validation failures after a
// successful Parse, e.g. a missing required flag.
func UsageErr(fs *flag.FlagSet, format string, args ...interface{}) error {
	fs.SetOutput(os.Stderr)
	fs.Usage()
	return Usagef(format, args...)
}

// Exit reports err on stderr (prefixed with the command name) and
// terminates with the conventional status; nil returns normally.
func Exit(name string, err error) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	if errors.Is(err, ErrUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}

// Main is the shared main() body.
func Main(name string, run func(args []string, stdout io.Writer) error) {
	Exit(name, run(os.Args[1:], os.Stdout))
}

// Serve serves h on ln until SIGINT/SIGTERM, then stops accepting and lets
// in-flight requests finish (10 s at most). It returns nil after such a
// shutdown, so the closes a main has deferred run newest first and strictly
// after the last request: a final checkpoint or a hint queue's close never
// races one.
func Serve(ln net.Listener, h http.Handler) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(shutCtx)
	}
}
