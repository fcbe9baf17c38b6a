package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds qfe-server and qfe-router, runs every workload in its
// seconds-long smoke configuration, traced (which runs it untraced first),
// and checks that the output checks pass and that the result lines carry
// every metric BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs servers")
	}
	spec := readSpec(t)
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/", "qfe/cmd/qfe-server", "qfe/cmd/qfe-router")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	names := make([]string, 0, len(workloads))
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			run, ok := workloads[name]
			if !ok {
				t.Fatalf("BENCHMARK.json workload %q has no implementation", name)
			}
			e := &env{bin: bin, work: t.TempDir(), seed: 1, seconds: 1, setups: 1,
				size: sizeFor(1, true)}
			res, err := measure(e, run, true)
			defer killAll()
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.errs {
				t.Errorf("violation: %s", v)
			}
			for traced, want := range map[bool][]specMetric{false: spec.EndToEnd, true: spec.PerLayer} {
				var buf bytes.Buffer
				if err := report(&buf, e, name, res, traced); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var line struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("result correct=%v failed=%d attempted=%d", line.Correct, line.Failed, line.Attempted)
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json names %d", traced, len(line.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := line.Metrics[m.Name]
					if !ok || got.Value == nil {
						t.Errorf("traced=%v: metric %s missing", traced, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if !traced {
					for _, m := range want {
						if v := line.Metrics[m.Name].Value; v != nil && *v == 0 {
							t.Errorf("end-to-end metric %s is 0", m.Name)
						}
					}
				}
			}
		})
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}
