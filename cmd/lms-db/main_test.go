package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestRunHelp(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"--help"}, &out); err != nil {
		t.Fatalf("run(--help) = %v, want nil", err)
	}
	for _, flag := range []string{"-addr", "-db", "-retention", "-shards", "-data-dir", "-fsync"} {
		if !strings.Contains(out.String(), flag) {
			t.Errorf("help output missing %s:\n%s", flag, out.String())
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("run(-no-such-flag) = nil, want error")
	}
}

func TestRunBadAddr(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-addr", "256.256.256.256:http"}, &out); err == nil {
		t.Fatal("run with unbindable addr = nil, want error")
	}
}

// TestRunServes boots the server on an ephemeral port and exercises the
// /ping and /write endpoints end to end.
func TestRunServes(t *testing.T) {
	pr, pw := io.Pipe()
	go func() {
		if err := run([]string{"-addr", "127.0.0.1:0", "-shards", "2"}, pw); err != nil {
			pw.CloseWithError(fmt.Errorf("run: %w", err))
		}
	}()
	// The first output line announces the bound address.
	buf := make([]byte, 256)
	n, err := pr.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	line := string(buf[:n])
	m := regexp.MustCompile(`on (127\.0\.0\.1:\d+)`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("no address in startup line %q", line)
	}
	base := "http://" + m[1]
	client := &http.Client{Timeout: 5 * time.Second}

	resp, err := client.Get(base + "/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("/ping status = %d", resp.StatusCode)
	}
	resp, err = client.Post(base+"/write?db=lms", "text/plain",
		strings.NewReader("cpu,hostname=h1 value=1 1500000000000000000\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("/write status = %d", resp.StatusCode)
	}
}

// startDB boots run() on an ephemeral port and returns the base URL and
// the channel run's error will arrive on. Output is drained in the
// background so shutdown prints never block the server.
func startDB(t *testing.T, args []string) (string, chan error) {
	t.Helper()
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		err := run(args, pw)
		pw.CloseWithError(err)
		errc <- err
	}()
	br := bufio.NewReader(pr)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading startup line: %v", err)
	}
	m := regexp.MustCompile(`on (127\.0\.0\.1:\d+)`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("no address in startup line %q", line)
	}
	go io.Copy(io.Discard, br)
	return "http://" + m[1], errc
}

// TestRunDurableSIGTERMRestartRoundTrip is the acceptance test of the
// durable lms-db: ingest a corpus over HTTP, SIGTERM the server (graceful
// shutdown: WAL flush + final checkpoint), restart it on the same
// -data-dir and require byte-identical /query responses.
func TestRunDurableSIGTERMRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-data-dir", dir}
	client := &http.Client{Timeout: 5 * time.Second}

	post := func(base, body string) {
		t.Helper()
		resp, err := client.Post(base+"/write?db=lms", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("/write status = %d", resp.StatusCode)
		}
	}
	queries := []string{
		"SELECT * FROM cpu",
		"SELECT mean(value) FROM cpu GROUP BY time(10s), hostname",
		"SELECT * FROM events",
		"SHOW MEASUREMENTS",
	}
	fingerprint := func(base string) string {
		t.Helper()
		var sb strings.Builder
		for _, q := range queries {
			resp, err := client.Get(base + "/query?db=lms&epoch=ns&q=" + url.QueryEscape(q))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/query %q status = %d: %s", q, resp.StatusCode, body)
			}
			sb.Write(body)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	sigterm := func(errc chan error) {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("graceful shutdown returned %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server did not shut down after SIGTERM")
		}
	}

	base, errc := startDB(t, args)
	for i := 0; i < 5; i++ {
		var lines strings.Builder
		for j := 0; j < 10; j++ {
			n := i*10 + j
			fmt.Fprintf(&lines, "cpu,hostname=h%d value=%d.5,ctx=%di %d\n",
				n%2+1, n, n*3, 1600000000000000000+int64(n)*1e9)
		}
		fmt.Fprintf(&lines, "events,jobid=42 msg=\"flush %d\" %d\n",
			i, 1600000000000000000+int64(i)*1e9)
		post(base, lines.String())
	}
	before := fingerprint(base)
	sigterm(errc)

	base2, errc2 := startDB(t, args)
	if after := fingerprint(base2); after != before {
		t.Fatal("/query responses after restart differ from pre-SIGTERM responses")
	}
	// The restarted server keeps accepting writes, and they land durably.
	post(base2, "cpu,hostname=h1 value=999 1700000000000000000\n")
	grown := fingerprint(base2)
	if grown == before {
		t.Fatal("write after restart is invisible")
	}
	sigterm(errc2)

	base3, errc3 := startDB(t, args)
	if got := fingerprint(base3); got != grown {
		t.Fatal("second restart lost the post-restart write")
	}
	sigterm(errc3)
}

// TestRunRetentionReachesLateDatabases: -retention ages out every database,
// also one born after start-up — here user_alice, created by its first
// write the way lms-router -user-dbs creates it.
func TestRunRetentionReachesLateDatabases(t *testing.T) {
	base, errc := startDB(t, []string{"-addr", "127.0.0.1:0", "-retention", "200ms"})
	client := &http.Client{Timeout: 5 * time.Second}
	holds := func(db string) bool {
		t.Helper()
		resp, err := client.Get(base + "/query?db=" + db + "&q=" + url.QueryEscape("SELECT count(v) FROM cpu"))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return strings.Contains(string(body), "count_v")
	}
	for _, db := range []string{"lms", "user_alice"} {
		resp, err := client.Post(base+"/write?db="+db, "text/plain",
			strings.NewReader("cpu,hostname=h1 v=1 1600000000000000000\ncpu,hostname=h1 v=2 1600000001000000000\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("/write?db=%s status = %d", db, resp.StatusCode)
		}
		if !holds(db) {
			t.Fatalf("%s does not hold the points just written", db)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); holds("lms") || holds("user_alice"); {
		if time.Now().After(deadline) {
			t.Fatalf("after 5 s of a 200ms retention: lms holds data %v, user_alice %v", holds("lms"), holds("user_alice"))
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("shutdown returned %v", err)
	}
}
