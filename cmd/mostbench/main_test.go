package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestModeSmoke drives every mostbench mode end to end through run() with
// -quick and a temp -out directory: a panicking sweep, a broken flag, or a
// mode that stops writing its report fails tier-1 here instead of being
// discovered at bench time.  Gated behind -short because together the
// quick sweeps take tens of seconds.
func TestModeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mode smoke runs every quick bench; skipped in -short")
	}
	cases := []struct {
		name  string
		args  []string
		wants []string // files that must exist in the out dir afterwards
	}{
		{"default", []string{"-quick", "-only", "E1"}, nil},
		{"parallel", []string{"-parallel", "-quick"}, []string{"BENCH_parallel.json"}},
		{"delta", []string{"-delta", "-quick"}, []string{"BENCH_delta.json"}},
		{"faults", []string{"-faults", "-quick"}, []string{"BENCH_faults.json"}},
		{"chaos", []string{"-chaos", "-quick"}, []string{"BENCH_faults.json"}},
		{"obs", []string{"-obs", "-quick"}, []string{"BENCH_obs.json"}},
		{"server", []string{"-server", "-quick"}, []string{"BENCH_server.json"}},
		{"city", []string{"-city", "-quick"}, []string{"BENCH_city.json"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			code := run(append(tc.args, "-out", dir), &stdout, &stderr)
			if code != 0 {
				t.Fatalf("run(%v) exited %d\nstderr: %s", tc.args, code, stderr.String())
			}
			for _, name := range tc.wants {
				path := filepath.Join(dir, name)
				if _, err := os.Stat(path); err != nil {
					t.Fatalf("run(%v) did not write %s: %v\nstdout: %s", tc.args, name, err, stdout.String())
				}
				// Every report announces where it landed.
				if !strings.Contains(stdout.String(), name) {
					t.Fatalf("run(%v) wrote %s without printing its path\nstdout: %s", tc.args, name, stdout.String())
				}
			}
			if len(tc.wants) == 0 && !strings.Contains(stdout.String(), "E1") {
				t.Fatalf("run(%v) printed no experiment table\nstdout: %s", tc.args, stdout.String())
			}
		})
	}
}

// TestRunErrors checks the failure paths keep failing: an unknown flag and
// a filter matching no experiment must exit non-zero.
func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown flag exited 0")
	}
	stderr.Reset()
	if code := run([]string{"-only", "E99"}, &stdout, &stderr); code == 0 {
		t.Fatal("-only E99 exited 0")
	}
	if !strings.Contains(stderr.String(), "no experiment matches") {
		t.Fatalf("unexpected stderr: %s", stderr.String())
	}
}

// TestGateThroughput runs both checked-in baselines through the one
// throughput gate: a run at the baseline passes, a run below the 0.75
// floor fails for each, as do a quick-mode mismatch, a baseline without
// updates_per_sec, and a cluster run slower than its own single node.
func TestGateThroughput(t *testing.T) {
	baseline := func(path string) (float64, bool) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var b struct {
			UpdatesPerSec float64 `json:"updates_per_sec"`
			Quick         bool    `json:"quick"`
		}
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatal(err)
		}
		return b.UpdatesPerSec, b.Quick
	}
	const city, cluster = "../../BENCH_city_baseline.json", "../../BENCH_cluster_baseline.json"
	cityUPS, cityQuick := baseline(city)
	clusterUPS, clusterQuick := baseline(cluster)
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"quick":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	speedup := func(x float64) *float64 { return &x }

	cases := []struct {
		name, base string
		run        gateRun
		wantErr    string // "" = the gate passes
	}{
		{"city at baseline", city, gateRun{UpdatesPerSec: cityUPS, Quick: cityQuick}, ""},
		{"city just above floor", city, gateRun{UpdatesPerSec: cityUPS * 0.76, Quick: cityQuick}, ""},
		{"city below floor", city, gateRun{UpdatesPerSec: cityUPS * 0.7, Quick: cityQuick}, "throughput regressed"},
		{"city quick mismatch", city, gateRun{UpdatesPerSec: cityUPS, Quick: !cityQuick}, "not comparable"},
		{"cluster at baseline", cluster, gateRun{UpdatesPerSec: clusterUPS, Quick: clusterQuick, Speedup: speedup(1.2)}, ""},
		{"cluster below floor", cluster, gateRun{UpdatesPerSec: clusterUPS * 0.7, Quick: clusterQuick, Speedup: speedup(1.2)}, "cluster throughput regressed"},
		{"cluster slower than single node", cluster, gateRun{UpdatesPerSec: clusterUPS, Quick: clusterQuick, Speedup: speedup(0.9)}, "no longer pays for itself"},
		{"baseline without updates_per_sec", empty, gateRun{UpdatesPerSec: 100, Quick: true}, "has no updates_per_sec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := gateThroughput(tc.base, tc.run, io.Discard)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("gate error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
