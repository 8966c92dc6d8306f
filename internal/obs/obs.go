// Package obs renders the Prometheus text exposition (format 0.0.4)
// behind every /metrics endpoint. Packages write their series into a
// Writer; the Writer groups samples by family, so a family's HELP and
// TYPE lines appear exactly once however many labelled children
// contributed samples to it. That is what lets the model registry
// render each hot model's own series under a {model="..."} label
// instead of keeping a second list of names.
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"targad/internal/buildinfo"
)

// ContentType is the exposition's HTTP Content-Type.
const ContentType = "text/plain; version=0.0.4"

// Writer collects samples for one scrape. The zero value is not
// usable; create one with New and derive labelled children with With.
type Writer struct {
	fams   *families
	labels string // fixed labels rendered as k="v",...; "" for none
}

// families is the state a Writer shares with all its With children.
type families struct {
	order  []*family
	byName map[string]*family
}

type family struct {
	name, help, typ string
	samples         []byte
}

// New returns an empty Writer.
func New() *Writer {
	return &Writer{fams: &families{byName: map[string]*family{}}}
}

// With returns a Writer over the same families whose samples also
// carry key="value". The value is escaped as strconv.Quote escapes it.
func (w *Writer) With(key, value string) *Writer {
	l := key + "=" + strconv.Quote(value)
	if w.labels != "" {
		l = w.labels + "," + l
	}
	return &Writer{fams: w.fams, labels: l}
}

// Counter writes one sample of a counter family.
func (w *Writer) Counter(name, help string, v int64) {
	w.sample(w.family(name, help, "counter"), name, "", strconv.FormatInt(v, 10))
}

// Gauge writes one sample of a gauge family.
func (w *Writer) Gauge(name, help string, v float64) {
	w.sample(w.family(name, help, "gauge"), name, "", formatFloat(v))
}

// Histogram writes one histogram: counts[i] observations fell in the
// bucket bounded above by bounds[i], and counts[len(bounds)] above the
// last bound. Buckets are rendered cumulative, ending in le="+Inf",
// then _sum and _count.
func (w *Writer) Histogram(name, help string, bounds []float64, counts []int64, sum float64, count int64) {
	f := w.family(name, help, "histogram")
	var cum int64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
		}
		w.sample(f, name+"_bucket", `le="`+le+`"`, strconv.FormatInt(cum, 10))
	}
	w.sample(f, name+"_sum", "", formatFloat(sum))
	w.sample(f, name+"_count", "", strconv.FormatInt(count, 10))
}

// Summary writes a quantile-free summary: its _sum and _count.
func (w *Writer) Summary(name, help string, sum float64, count int64) {
	f := w.family(name, help, "summary")
	w.sample(f, name+"_sum", "", formatFloat(sum))
	w.sample(f, name+"_count", "", strconv.FormatInt(count, 10))
}

// BuildInfo writes the process-level targad_build_info gauge. Call it
// once per scrape, on the unlabelled root Writer.
func (w *Writer) BuildInfo() {
	w.With("version", buildinfo.Version()).
		With("revision", buildinfo.Revision()).
		With("go", buildinfo.GoVersion()).
		Gauge("targad_build_info", "Build metadata; the value is always 1.", 1)
}

// Bool is the 0/1 gauge value of a flag.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// WriteTo writes every family in the order it was first written: HELP,
// TYPE, then all of its samples.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	var b []byte
	for _, f := range w.fams.order {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		b = append(b, f.samples...)
	}
	n, err := out.Write(b)
	return int64(n), err
}

// family returns the named family, creating it on first use. HELP and
// TYPE come from the first write; every writer of a family passes the
// same ones.
func (w *Writer) family(name, help, typ string) *family {
	f, ok := w.fams.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		w.fams.byName[name] = f
		w.fams.order = append(w.fams.order, f)
	}
	return f
}

// sample appends `series{labels} value` to f, the labels being w's
// fixed ones followed by extra.
func (w *Writer) sample(f *family, series, extra, value string) {
	labels := w.labels
	if extra != "" {
		if labels != "" {
			labels += ","
		}
		labels += extra
	}
	f.samples = append(f.samples, series...)
	if labels != "" {
		f.samples = append(append(append(f.samples, '{'), labels...), '}')
	}
	f.samples = append(append(append(f.samples, ' '), value...), '\n')
}

// formatFloat renders integral values as integers (1000000, not the
// 1e+06 of %g) and anything else in %g's shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
