package obs

import (
	"strings"
	"testing"
)

func render(t *testing.T, w *Writer) string {
	t.Helper()
	var b strings.Builder
	if _, err := w.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWriterGroupsFamilies: samples written from two With children in
// interleaved order land in one block per family, families in
// first-seen order, each with exactly one HELP and one TYPE line under
// the family name.
func TestWriterGroupsFamilies(t *testing.T) {
	w := New()
	a, b := w.With("model", "a"), w.With("model", `b"\`)
	a.Counter("x_total", "X.", 1)
	b.Counter("x_total", "X.", 2)
	b.Gauge("y", "Y.", 0.5)
	a.Gauge("y", "Y.", 1e6)
	a.Counter("x_total", "X.", 3)
	w.Gauge("z", "Z.", 7)

	want := `# HELP x_total X.
# TYPE x_total counter
x_total{model="a"} 1
x_total{model="b\"\\"} 2
x_total{model="a"} 3
# HELP y Y.
# TYPE y gauge
y{model="b\"\\"} 0.5
y{model="a"} 1000000
# HELP z Z.
# TYPE z gauge
z 7
`
	if got := render(t, w); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriterLabelEscaping: label values are escaped exactly as %q
// escapes them, and chained With labels keep their order.
func TestWriterLabelEscaping(t *testing.T) {
	w := New()
	w.With("k", "a\nb\t\"c\"").With("j", "é").Gauge("g", "G.", 1)
	want := "g{k=\"a\\nb\\t\\\"c\\\"\",j=\"é\"} 1\n"
	if got := render(t, w); !strings.HasSuffix(got, want) {
		t.Fatalf("got %q, want suffix %q", got, want)
	}
}

// TestWriterHistogramAndSummary: a histogram renders cumulative
// buckets ending in +Inf, then _sum and _count, with the fixed labels
// before le; a summary renders _sum and _count under one HELP/TYPE.
func TestWriterHistogramAndSummary(t *testing.T) {
	w := New()
	w.With("model", "m").Histogram("lat_seconds", "Latency.", []float64{0.0005, 0.01}, []int64{2, 0, 3}, 1.25, 5)
	w.Summary("dur_seconds", "Duration.", 0.5, 4)

	want := `# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{model="m",le="0.0005"} 2
lat_seconds_bucket{model="m",le="0.01"} 2
lat_seconds_bucket{model="m",le="+Inf"} 5
lat_seconds_sum{model="m"} 1.25
lat_seconds_count{model="m"} 5
# HELP dur_seconds Duration.
# TYPE dur_seconds summary
dur_seconds_sum 0.5
dur_seconds_count 4
`
	if got := render(t, w); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriterOneHelpAndTypePerFamily: however many children write a
// family, it gets one HELP and one TYPE line, both naming the family.
func TestWriterOneHelpAndTypePerFamily(t *testing.T) {
	w := New()
	for _, m := range []string{"a", "b", "c"} {
		c := w.With("model", m)
		c.Counter("r_total", "R.", 1)
		c.Histogram("h", "H.", []float64{1}, []int64{1, 1}, 2, 2)
		c.Summary("s", "S.", 1, 1)
	}
	w.BuildInfo()
	help, typ := map[string]int{}, map[string]int{}
	for _, line := range strings.Split(render(t, w), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			switch f[1] {
			case "HELP":
				help[f[2]]++
			case "TYPE":
				typ[f[2]]++
			}
		}
	}
	for _, name := range []string{"r_total", "h", "s", "targad_build_info"} {
		if help[name] != 1 || typ[name] != 1 {
			t.Fatalf("family %s: %d HELP and %d TYPE lines, want 1 each", name, help[name], typ[name])
		}
	}
	if len(help) != 4 || len(typ) != 4 {
		t.Fatalf("HELP names %v, TYPE names %v, want the 4 family names", help, typ)
	}
}
