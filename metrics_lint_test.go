package lms

// Metrics lint (DESIGN.md §14): every /metrics scrape of the stack —
// lms-db's store handler and lms-router, cluster series included — must
// be valid Prometheus text exposition, every series namespaced under
// lms_, with coherent HELP/TYPE metadata and no duplicate series. The
// obs registry already panics on duplicate *registration*; this test
// pins the rendered output end to end, on live handlers that have seen
// real traffic.

import (
	"bufio"
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/router"
	"repro/internal/tsdb"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	labelRe      = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
)

// lintPromText validates one exposition-format payload and returns the
// set of sampled metric names.
func lintPromText(t *testing.T, origin, scrape string) map[string]bool {
	t.Helper()
	typed := map[string]string{}
	helped := map[string]bool{}
	seenSeries := map[string]bool{}
	names := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(scrape))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) {
				t.Fatalf("%s: malformed HELP line %q", origin, line)
			}
			if helped[parts[0]] {
				t.Fatalf("%s: duplicate HELP for %s", origin, parts[0])
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("%s: malformed TYPE line %q", origin, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("%s: bad metric type in %q", origin, line)
			}
			if _, dup := typed[parts[0]]; dup {
				t.Fatalf("%s: duplicate TYPE for %s", origin, parts[0])
			}
			typed[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("%s: malformed sample line %q", origin, line)
		}
		name, labels, value := m[1], m[3], m[4]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("%s: non-numeric sample value in %q", origin, line)
		}
		if labels != "" {
			for _, lv := range splitLabels(labels) {
				if !labelRe.MatchString(lv) {
					t.Fatalf("%s: malformed label %q in %q", origin, lv, line)
				}
			}
		}
		series := name + "{" + labels + "}"
		if seenSeries[series] {
			t.Fatalf("%s: duplicate series %s", origin, series)
		}
		seenSeries[series] = true

		// Histogram/summary samples hang off their family name.
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typed[base] != "" {
				family = base
			}
		}
		if !strings.HasPrefix(family, "lms_") {
			t.Fatalf("%s: metric %q escapes the lms_ namespace", origin, name)
		}
		if typed[family] == "" {
			t.Fatalf("%s: sample %q has no TYPE metadata", origin, name)
		}
		if !helped[family] {
			t.Fatalf("%s: sample %q has no HELP metadata", origin, name)
		}
		names[family] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatalf("%s: scrape carried no samples:\n%s", origin, scrape)
	}
	return names
}

// splitLabels splits `a="x",b="y"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

func TestMetricsLint(t *testing.T) {
	// lms-db: a store handler with cluster series registered, after real
	// write and query traffic (including a slow query and a shed write).
	store := tsdb.NewStore()
	store.CreateDatabase("lms")
	dbh := tsdb.NewHandler(store)
	clu, err := cluster.New(cluster.Config{Peers: []string{"http://n1", "http://n2"}, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	clu.RegisterMetrics(store.Metrics().Registry())
	dbSrv := httptest.NewServer(dbh)
	defer dbSrv.Close()

	// lms-router forwarding into the same store.
	rt, err := router.New(router.Config{Primary: router.LocalSink{DB: store.DB("lms")}})
	if err != nil {
		t.Fatal(err)
	}
	rtSrv := httptest.NewServer(rt)
	defer rtSrv.Close()

	for _, url := range []string{
		dbSrv.URL + "/write?db=lms",
		rtSrv.URL + "/write?db=lms",
	} {
		rsp, err := rtSrv.Client().Post(url, "text/plain",
			strings.NewReader("cpu,hostname=h1 value=1 1000000000\n"))
		if err != nil {
			t.Fatal(err)
		}
		rsp.Body.Close()
		if rsp.StatusCode != 204 {
			t.Fatalf("POST %s: %d", url, rsp.StatusCode)
		}
	}
	if rsp, err := dbSrv.Client().Get(dbSrv.URL + "/query?db=lms&q=SELECT%20value%20FROM%20cpu"); err != nil {
		t.Fatal(err)
	} else {
		rsp.Body.Close()
	}

	scrape := func(base string) string {
		rsp, err := dbSrv.Client().Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer rsp.Body.Close()
		if rsp.StatusCode != 200 {
			t.Fatalf("GET %s/metrics: %d", base, rsp.StatusCode)
		}
		body, err := io.ReadAll(rsp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	dbScrape := scrape(dbSrv.URL)
	dbNames := lintPromText(t, "lms-db", dbScrape)
	for _, want := range []string{
		"lms_ingest_points_total", "lms_query_seconds", "lms_http_requests_shed_total",
		"lms_cluster_nodes", "lms_db_points", "lms_wal_fsync_seconds",
		"lms_job_runs_total", "lms_job_failures_total", "lms_job_run_seconds_total",
		"lms_job_last_success_timestamp_seconds", "lms_db_chunk_decode_errors_total",
	} {
		if !dbNames[want] {
			t.Fatalf("lms-db scrape missing %s (have %v)", want, dbNames)
		}
	}
	// Every background job is one series per family, labelled by job alone:
	// the store's three and, registered into the same registry, the
	// cluster's. Chunks merge on the write path, not in a job.
	for _, job := range []string{"retention", "checkpoint", "wal_sync", "hint_drain"} {
		if want := `lms_job_runs_total{job="` + job + `"} `; strings.Count(dbScrape, want) != 1 {
			t.Errorf("lms-db scrape: want exactly one %s sample", want)
		}
	}
	if strings.Contains(dbScrape, `job="compaction"`) {
		t.Error(`lms-db scrape: a job="compaction" series`)
	}

	rtNames := lintPromText(t, "lms-router", scrape(rtSrv.URL))
	for want := range map[string]bool{"lms_router_received_points_total": true, "lms_router_forwarded_points_total": true} {
		if !rtNames[want] {
			t.Fatalf("lms-router scrape missing %s (have %v)", want, rtNames)
		}
	}
}
