package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// hotBench is one exit-pipeline hot-path case as nvperf's artifact records
// it: one boundary call on a prebuilt stack, timed back to back.
type hotBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// hotMetric is the per-layer metric name of a hot-path case.
func hotMetric(name string) string {
	return "hotpath." + strings.ReplaceAll(name, "/", ".") + ".ns"
}

// hotPaths runs the repository's nvperf command and reads the hot-path cases
// from the artifact it writes into the trace directory. nvperf owns the list
// of cases; the traced run reports each as a probe of the hyper layer.
func (r *runner) hotPaths() ([]hotBench, error) {
	if err := os.MkdirAll(r.traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(r.traceDir, "nvperf.json")
	cmd := exec.Command(r.tool("nvperf"), "-o", path)
	cmd.Stdout, cmd.Stderr = r.log, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("nvperf: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var artifact struct {
		HotPath []hotBench `json:"hot_path"`
	}
	if err := json.Unmarshal(raw, &artifact); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(artifact.HotPath) == 0 {
		return nil, fmt.Errorf("%s: no hot-path cases", path)
	}
	return artifact.HotPath, nil
}
