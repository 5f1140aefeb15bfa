package cli

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/lineproto"
	"repro/internal/tsdb"
)

// JobSource is the shared job-data plumbing of lms-analyze and
// lms-dashboard: exactly one of DataPath (offline line-protocol dump) or
// DBURL (remote lms-db over HTTP) selects the mode, plus the common
// window and node overrides. The mains validate the exactly-one rule
// against their flag set; Open assumes it holds.
type JobSource struct {
	DataPath string // line-protocol dump file (offline mode)
	DBURL    string // base URL of a running lms-db (remote mode)
	DBName   string
	JobID    string
	StartArg string // RFC3339 override; "" = mode default
	EndArg   string // RFC3339 override; "" = mode default
	NodesArg string // comma-separated override; "" = discover
	// OfflineEndPad widens the dump-derived end of the window (the
	// dashboard pads one second so panels include the last sample). An
	// explicit EndArg replaces the padded value.
	OfflineEndPad time.Duration
}

// Open resolves the source into a querier over the job's data, the node
// list (jobid-scoped discovery unless NodesArg is set) and the evaluation
// window. Offline mode defaults the window to the dump's extent; remote
// mode to the last hour.
func (s JobSource) Open(ctx context.Context) (qr tsdb.Querier, nodes []string, start, end time.Time, err error) {
	if s.DBURL != "" {
		qr = &tsdb.Client{BaseURL: strings.TrimRight(s.DBURL, "/"), Database: s.DBName}
		end = time.Now().UTC().Truncate(time.Second)
		start = end.Add(-time.Hour)
	} else {
		if qr, start, end, err = loadDump(s.DataPath, s.DBName); err != nil {
			return nil, nil, start, end, err
		}
		end = end.Add(s.OfflineEndPad)
	}
	if s.StartArg != "" {
		if start, err = time.Parse(time.RFC3339, s.StartArg); err != nil {
			return nil, nil, start, end, fmt.Errorf("bad -start: %w", err)
		}
	}
	if s.EndArg != "" {
		if end, err = time.Parse(time.RFC3339, s.EndArg); err != nil {
			return nil, nil, start, end, fmt.Errorf("bad -end: %w", err)
		}
	}
	if s.NodesArg != "" {
		nodes = strings.Split(s.NodesArg, ",")
	} else {
		nodes, err = analysis.DiscoverJobNodes(ctx, qr, s.DBName, s.JobID)
		if err != nil {
			return nil, nil, start, end, fmt.Errorf("discover nodes: %w", err)
		}
	}
	if len(nodes) == 0 {
		return nil, nil, start, end, fmt.Errorf("no nodes given and no hostname tags found")
	}
	return qr, nodes, start, end, nil
}

// loadDump reads a line-protocol dump file into a fresh single-database
// store and returns a local querier over it plus the dump's time extent.
func loadDump(path, dbName string) (qr tsdb.Querier, start, end time.Time, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, start, end, err
	}
	pts, err := lineproto.Parse(raw)
	if err != nil {
		return nil, start, end, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(pts) == 0 {
		return nil, start, end, fmt.Errorf("no points in %s", path)
	}
	store := tsdb.NewStore()
	if err := store.CreateDatabase(dbName).WriteBatchContext(context.Background(), pts); err != nil {
		return nil, start, end, fmt.Errorf("load %s: %w", path, err)
	}
	start, end = pts[0].Time, pts[0].Time
	for _, p := range pts {
		if p.Time.Before(start) {
			start = p.Time
		}
		if p.Time.After(end) {
			end = p.Time
		}
	}
	return tsdb.LocalQuerier{Store: store}, start, end, nil
}
