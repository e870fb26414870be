package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"ironsafe/internal/schema"
	"ironsafe/internal/value"
)

// spec is the part of BENCHMARK.json the smoke test holds the program to.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload for one pass at tiny scale, timed and traced,
// and checks that exactly the metrics BENCHMARK.json names come out, once
// each, with their units and finite values, and that every op was correct.
func TestSmoke(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(blob, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	out := t.TempDir()
	for _, w := range sp.Workloads {
		if findWorkload(w.Name) == nil {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
		for trace, want := range map[string][]specMetric{"0": sp.EndToEnd, "1": sp.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "1", "--seconds", "1", "--trace", trace, "-scale", "tiny", "-out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w.Name, trace, code, stderr.String())
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var rep report
			dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&rep); err != nil {
				t.Fatalf("%s trace=%s: last stdout line is not the report: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d: %s", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed, stderr.String())
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s has unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%s: metric %s is not finite", w.Name, trace, m.Name)
				case trace == "0" && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
		for _, f := range []string{".result.json", ".layers.json", ".trace.json"} {
			if _, err := os.Stat(out + "/" + w.Name + f); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
	}
}

// TestTraceSelfTimes pins the tracer's arithmetic: self time is duration
// minus children, and a child outside its parent is an error.
func TestTraceSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 1, Start: 15, End: 25},
		{ID: 3, Parent: 0, Start: 50, End: 90},
	}}
	self, err := tr.selfTimes()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{30, 20, 10, 40} {
		if self[i] != want {
			t.Errorf("span %d self = %d, want %d", i, self[i], want)
		}
	}
	tr.spans[3].End = 120
	if _, err := tr.selfTimes(); err == nil {
		t.Error("a child ending after its parent was accepted")
	}
}

// TestRowBytes holds the constants the amplification metrics divide by equal
// to what the engine actually encodes for one generated row — for every row,
// since fixed widths are what keep the simulated metrics seed-independent.
func TestRowBytes(t *testing.T) {
	event := schema.Row{value.Int(10_000_000), value.Str("w00"), value.Float(417), value.Str("0123456789abcdef")}
	if got := schema.EncodedSize(event); got != eventRowBytes {
		t.Errorf("events row encodes to %d bytes, eventRowBytes is %d", got, eventRowBytes)
	}
	for _, seed := range []int64{1, 2, 99} {
		for _, r := range genPII(seed, 128) {
			expiry, err := value.ParseDate(r.expiry)
			if err != nil {
				t.Fatal(err)
			}
			row := schema.Row{value.Int(int64(r.id)), value.Str(r.name), value.Str(r.email), expiry, value.Int(int64(r.reuseMap))}
			if got := schema.EncodedSize(row); got != piiRowBytes {
				t.Fatalf("seed %d: pii row %d encodes to %d bytes, piiRowBytes is %d", seed, r.id, got, piiRowBytes)
			}
		}
	}
}

// TestIQRShare pins the spread statistic to Python's
// statistics.quantiles(values, n=4), which the acceptance rule is stated in:
// for 1..10 the quartiles are 2.75, 5.5, 8.25.
func TestIQRShare(t *testing.T) {
	v := []float64{7, 1, 10, 3, 5, 9, 2, 8, 4, 6}
	if got := iqrShare(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	if got := percentile(v, 90); got != 9 {
		t.Errorf("percentile(1..10, 90) = %v, want 9", got)
	}
}
