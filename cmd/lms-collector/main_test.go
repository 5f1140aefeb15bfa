package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunUnknownGroup: an unknown -groups name fails the start with an
// error naming it, before the agent sends anything.
func TestRunUnknownGroup(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	var out strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-hostname", "n1", "-simulate", "triad", "-groups", "MEM_DP,NOPE", "-endpoint", srv.URL, "-interval", "10ms"}, &out)
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "NOPE") {
			t.Fatalf("run = %v, want an error naming NOPE", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return: it started with an unknown group")
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("%d requests sent before the start failed", n)
	}
}
