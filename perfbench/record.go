package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// params are the settings a result depends on. Two results compare only
// when every field matches.
type params struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Catalog    int    `json:"catalog"`
	Shards     int    `json:"shards"`
	Replicas   int    `json:"replicas"`
	Window     int    `json:"window"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Models     string `json:"models"`
	Engines    string `json:"engines"`
}

// record is one run: its parameters, provenance and result.
type record struct {
	Params   params `json:"params"`
	GitRev   string `json:"git_rev"`
	Digest   string `json:"digest"`
	SpanFile string `json:"span_file,omitempty"`
	Result   result `json:"result"`
}

func newRecord(wl string, seed int64, seconds int, trace bool, root string) *record {
	engines := "in memory"
	if wl == wlChurn {
		engines = "persistent under a scratch dir; flush-on-commit off: one WAL write per commit, no fsync per commit (background flush every 500ms)"
	}
	rec := &record{
		Params: params{
			Workload: wl, Seed: seed, Seconds: seconds, Trace: trace,
			Catalog: catalogSize, Shards: numShards, Replicas: numReplicas, Window: window,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Models:  "off (netsim unshaped, disk.Fast)",
			Engines: engines,
		},
		GitRev: gitRev(root),
	}
	if trace {
		rec.SpanFile = filepath.Join(root, ".bench_build", "spans-"+wl+".tsv")
	}
	return rec
}

// gitRev reads the checked-out commit from <root>/.git without running
// git; outside a repository it is "unknown".
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

func writeRecord(path string, rec *record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// paramDiffs lists the parameters on which two records differ.
func paramDiffs(a, b params) []string {
	var ja, jb map[string]any
	ba, _ := json.Marshal(a) // plain struct: cannot fail
	bb, _ := json.Marshal(b)
	_ = json.Unmarshal(ba, &ja)
	_ = json.Unmarshal(bb, &jb)
	var diffs []string
	for k, v := range ja {
		if fmt.Sprint(v) != fmt.Sprint(jb[k]) {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", k, v, jb[k]))
		}
	}
	sort.Strings(diffs)
	return diffs
}

// compareRecords prints each metric of two run records side by side. It
// refuses (exit 2) records whose parameters differ.
func compareRecords(paths []string, w io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: --compare needs two record files")
		return 2
	}
	a, err := readRecord(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := readRecord(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if diffs := paramDiffs(a.Params, b.Params); len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare runs with different parameters:\n  %s\n", strings.Join(diffs, "\n  "))
		return 2
	}
	fmt.Fprintf(w, "%s (%s) vs %s (%s)\n", paths[0], a.GitRev, paths[1], b.GitRev)
	names := make([]string, 0, len(a.Result.Metrics))
	for k := range a.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		ma, mb := a.Result.Metrics[k], b.Result.Metrics[k]
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Fprintf(w, "  %-44s %14.6g %14.6g %-8s %s\n", k, ma.Value, mb.Value, ma.Unit, change)
	}
	return 0
}
