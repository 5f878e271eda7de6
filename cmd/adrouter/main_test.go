package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestRunRejectsBadArguments covers the argument errors run reports before
// it spawns, waits for or listens on anything.
func TestRunRejectsBadArguments(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing -shards", nil, "-shards is required"},
		{"blank -shards", []string{"-shards", " , "}, "-shards is required"},
		{"scheme-less backend", []string{"-shards", "localhost:8401"}, "invalid base URL"},
		{"bad -fault-kinds", []string{"-shards", "http://127.0.0.1:8401", "-fault-kinds", "latency,meteor"}, "unknown fault kind"},
		{"negative -privacy-k", []string{"-shards", "http://127.0.0.1:8401", "-privacy-k", "-1"}, "k must be non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-addr", "127.0.0.1:0", "-wait-ready", "0"}, tc.args...)
			err := run(args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestShardCommandLines(t *testing.T) {
	backends := []string{"http://127.0.0.1:8401", "http://127.0.0.1:8402"}
	argv, logs, err := shardCommandLines("./adplatform  -addr {addr} -store-dir wal/shard{shard}", "", backends)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"./adplatform", "-addr", "127.0.0.1:8401", "-store-dir", "wal/shard0"},
		{"./adplatform", "-addr", "127.0.0.1:8402", "-store-dir", "wal/shard1"},
	}
	if !reflect.DeepEqual(argv, want) {
		t.Errorf("argv = %q, want %q", argv, want)
	}
	if !reflect.DeepEqual(logs, []string{"", ""}) {
		t.Errorf("logs without -shard-log-dir = %q, want none", logs)
	}

	dir := filepath.Join(t.TempDir(), "logs")
	_, logs, err = shardCommandLines("adplatform -addr {addr}", dir, backends)
	if err != nil {
		t.Fatal(err)
	}
	wantLogs := []string{filepath.Join(dir, "shard0.log"), filepath.Join(dir, "shard1.log")}
	if !reflect.DeepEqual(logs, wantLogs) {
		t.Errorf("logs = %q, want %q", logs, wantLogs)
	}

	if _, _, err := shardCommandLines("  ", "", backends); err == nil || !strings.Contains(err.Error(), "rendered empty") {
		t.Errorf("blank template: err = %v, want a rendered-empty error", err)
	}
	if _, _, err := shardCommandLines("adplatform -addr {addr}", "", []string{"localhost:8401"}); err == nil {
		t.Error("backend without a host: want an error")
	}
}

func TestSplitBackends(t *testing.T) {
	cases := []struct {
		raw  string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"http://a:1", []string{"http://a:1"}},
		{" http://a:1/ ,http://b:2//", []string{"http://a:1", "http://b:2"}},
		{"http://a:1,,http://b:2,", []string{"http://a:1", "http://b:2"}},
	}
	for _, tc := range cases {
		if got := splitBackends(tc.raw); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitBackends(%q) = %q, want %q", tc.raw, got, tc.want)
		}
	}
}
