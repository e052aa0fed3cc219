package telemetry

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a deterministic registry exercising every
// metric kind: counters, a gauge, a histogram with entries in its
// overflow bucket, and a name that needs sanitizing.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("epoch.count").Add(3)
	r.Counter("fault.injected.drop").Add(7)
	r.Counter("net.msg_in.register") // present at zero
	r.Gauge("epoch.mean_penalty").Set(0.0625)
	h := r.Histogram("epoch.penalty", []float64{0.1, 0.25, 0.5})
	for _, v := range []float64{0.05, 0.05, 0.2, 0.3, 0.45, 0.9, 2} {
		h.Observe(v)
	}
	return r
}

// TestPrometheusGolden pins the exposition byte for byte: stable
// ordering, HELP/TYPE lines, cumulative buckets with the +Inf bucket.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("prometheus exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s",
			buf.String(), want)
	}
}

var (
	promSampleRe  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="([^"]+)"\})? (\S+)$`)
	promHelpRe    = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	promTypeRe    = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	promMetricRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promBucketSfx = "_bucket"
)

// parseProm is a minimal exposition-format checker: every line must be
// a well-formed HELP, TYPE, or sample; every sample's base family must
// have a TYPE declared before it; histogram buckets must be cumulative
// and end at +Inf == _count. It returns the parsed samples.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	var lastBucket float64
	var lastBucketFamily string
	sc := bufio.NewScanner(strings.NewReader(text))
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			if !promHelpRe.MatchString(line) {
				t.Fatalf("line %d: malformed HELP: %q", ln, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			m := promTypeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", ln, line)
			}
			typed[m[1]] = m[2]
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", ln, line)
		}
		name, le, valStr := m[1], m[3], m[4]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: unparsable value %q: %v", ln, valStr, err)
		}
		family := name
		for _, sfx := range []string{promBucketSfx, "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, sfx); ok && typed[base] == "histogram" {
				family = base
				break
			}
		}
		if !promMetricRe.MatchString(family) {
			t.Fatalf("line %d: illegal metric name %q", ln, family)
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("line %d: sample %q before its TYPE line", ln, name)
		}
		if le != "" {
			if family == lastBucketFamily && val < lastBucket {
				t.Fatalf("line %d: bucket counts not cumulative for %s: %v after %v",
					ln, family, val, lastBucket)
			}
			lastBucketFamily, lastBucket = family, val
			if le == "+Inf" {
				samples[family+"_bucket{le=+Inf}"] = val
			}
			continue
		}
		samples[name] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestPrometheusParseBack writes the golden registry and checks the
// output stays machine-readable: well-formed grammar, cumulative
// buckets, +Inf bucket equal to _count, and values matching the
// registry.
func TestPrometheusParseBack(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, buf.String())

	if got := samples["epoch_count"]; got != 3 {
		t.Errorf("epoch_count = %v, want 3", got)
	}
	if got := samples["fault_injected_drop"]; got != 7 {
		t.Errorf("fault_injected_drop = %v, want 7", got)
	}
	if got := samples["net_msg_in_register"]; got != 0 {
		t.Errorf("net_msg_in_register = %v, want 0 (pre-created counters expose at zero)", got)
	}
	if got := samples["epoch_mean_penalty"]; got != 0.0625 {
		t.Errorf("epoch_mean_penalty = %v, want 0.0625", got)
	}
	if got := samples["epoch_penalty_count"]; got != 7 {
		t.Errorf("epoch_penalty_count = %v, want 7", got)
	}
	if inf := samples["epoch_penalty_bucket{le=+Inf}"]; inf != samples["epoch_penalty_count"] {
		t.Errorf("+Inf bucket %v != _count %v", inf, samples["epoch_penalty_count"])
	}
	if got := samples["epoch_penalty_sum"]; got < 3.95-1e-9 || got > 3.95+1e-9 {
		t.Errorf("epoch_penalty_sum = %v, want 3.95", got)
	}
}

func TestPromNameSanitization(t *testing.T) {
	for in, want := range map[string]string{
		"epoch.count":        "epoch_count",
		"net.msg_in.assess":  "net_msg_in_assess",
		"phase.match_s":      "phase_match_s",
		"9lives":             "_9lives",
		"weird-name/metric":  "weird_name_metric",
		"already_fine:total": "already_fine:total",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
