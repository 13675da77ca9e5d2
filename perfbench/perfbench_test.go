package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"netcoord"
)

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 1, trace: trace, work: t.TempDir(), scale: tinyScale}
}

// TestServeReadCheckRejectsSwappedTie plants an answer whose two tied
// results (same coordinate, so the id breaks the tie) come in the wrong
// order.
func TestServeReadCheckRejectsSwappedTie(t *testing.T) {
	w := &serveRead{
		pts: []point{
			{id: "a", vec: [3]float64{0, 0, 0}, height: 0.5},
			{id: "b", vec: [3]float64{1, 0, 0}, height: 0.5},
			{id: "c", vec: [3]float64{1, 0, 0}, height: 0.5},
			{id: "d", vec: [3]float64{5, 0, 0}, height: 0.5},
		},
		byID: map[string]int{"a": 0, "b": 1, "c": 2, "d": 3},
	}
	op := &readOp{id: "a", k: 2, url: "/nearest?id=a&k=2"}
	answer := func(ids ...string) servedAnswer {
		rows := []answerJSON{}
		for _, id := range ids {
			rows = append(rows, answerJSON{ID: id, RTT: 2})
		}
		body, err := json.Marshal(map[string]any{"results": rows})
		if err != nil {
			t.Fatal(err)
		}
		return servedAnswer{op, body}
	}
	if err := w.checkAnswer(answer("b", "c")); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := w.checkAnswer(answer("c", "b")); !errors.Is(err, errCheck) {
		t.Fatalf("swapped tie accepted: %v", err)
	}
	if err := w.checkAnswer(answer("b", "d")); !errors.Is(err, errCheck) {
		t.Fatalf("wrong neighbour accepted: %v", err)
	}
}

// TestPublishWatchCheckRejectsMissingFollowerEntry runs the workload
// at tiny scale, removes one entry from the follower behind the
// stream's back and expects the check to notice.
func TestPublishWatchCheckRejectsMissingFollowerEntry(t *testing.T) {
	w := newPublishWatch(tinyOptions(t, "publish-watch", false))
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.run(200*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	if !w.follower.Registry.Remove(w.ids[0]) {
		t.Fatalf("follower has no entry %s", w.ids[0])
	}
	err := w.check()
	if !errors.Is(err, errCheck) || !strings.Contains(err.Error(), "follower differs") {
		t.Fatalf("missing follower entry not reported: %v", err)
	}
}

// TestConvergeCheckRejectsDegenerateRun feeds the check the 256-node,
// 90-second configuration the repository's simulator micro-benchmarks
// time: no link passes the filter's warm-up, so no coordinate moves.
func TestConvergeCheckRejectsDegenerateRun(t *testing.T) {
	r, err := netcoord.Simulate(netcoord.SimulationConfig{Nodes: 256, Seconds: 90, Client: netcoord.DefaultConfig(), Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = checkConverged(r)
	if err == nil || !strings.Contains(err.Error(), "median relative error") {
		t.Fatalf("degenerate run (median error %.3f) passed the accuracy check: %v", r.System.MedianRelErr, err)
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test compares
// the printed metrics with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeEveryWorkload runs every workload end to end at tiny scale,
// timed and traced, and requires correct results carrying exactly the
// metrics BENCHMARK.json names, with their units.
func TestSmokeEveryWorkload(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range bf.Workloads {
		names = append(names, wl.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			if trace && name != "publish-watch" {
				continue // a traced run visits every workload anyway
			}
			var out bytes.Buffer
			res, err := execute(tinyOptions(t, name, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", name, trace, err, out.String())
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%t: correct %t attempted %d failed %d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if err := finite(res.Metrics); err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for n, m := range res.Metrics {
				if unit, ok := want[n]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s in %s, BENCHMARK.json has %q", name, trace, n, m.Unit, unit)
				}
			}
		}
	}
}
