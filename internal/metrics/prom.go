package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file renders a Snapshot as Prometheus text exposition (format 0.0.4),
// so any off-the-shelf scraper can consume /metrics?format=prom without the
// platform importing a client library.
//
// Instrument names here are dots-and-pipes: "rpc.server.ns|method=midas.renewBatch"
// means metric "rpc.server.ns" with label method="midas.renewBatch" (the RED layer
// in internal/transport mints such names). promName splits the label suffix
// off, sanitizes the metric and label names to the Prometheus grammar, and
// escapes label values, so arbitrary method strings cannot corrupt the
// exposition.

// promSeries is one parsed instrument name: a sanitized metric name plus a
// rendered, escaped label block like {method="midas.renewBatch"} (empty if none).
type promSeries struct {
	name   string
	labels string // "" or `{k="v",...}`
}

// sanitizeMetricName maps an arbitrary instrument name onto the Prometheus
// metric-name grammar [a-zA-Z_:][a-zA-Z0-9_:]*. Dots (our namespace
// separator) and anything else illegal become underscores.
func sanitizeMetricName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sanitizeLabelName maps onto the label-name grammar [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeLabelName(s string) string {
	out := sanitizeMetricName(s)
	return strings.ReplaceAll(out, ":", "_")
}

// escapeLabelValue escapes a label value per the exposition format: backslash,
// double quote and newline are the three characters with escape sequences.
// The format requires valid UTF-8, so stray bytes become replacement runes.
func escapeLabelValue(s string) string {
	s = strings.ToValidUTF8(s, "�")
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// promParse splits an instrument name into metric name and label block. The
// label suffix is everything after the first '|', as comma-separated k=v
// pairs; malformed pairs keep their text as a value under the label "label"
// rather than being dropped, so nothing silently disappears.
func promParse(instrument string) promSeries {
	name, rest, found := strings.Cut(instrument, "|")
	s := promSeries{name: sanitizeMetricName(name)}
	if !found || rest == "" {
		return s
	}
	var parts []string
	for _, pair := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			k, v = "label", pair
		}
		// Not %q: the value is already exposition-escaped, and Go quoting
		// would double-escape it (and escape bytes the format leaves alone).
		parts = append(parts, fmt.Sprintf(`%s="%s"`, sanitizeLabelName(k), escapeLabelValue(v)))
	}
	s.labels = "{" + strings.Join(parts, ",") + "}"
	return s
}

// seriesLine renders one sample, merging extra labels (le for histogram
// buckets) into an existing label block.
func (s promSeries) line(suffix, extraLabel string, value any) string {
	labels := s.labels
	if extraLabel != "" {
		if labels == "" {
			labels = "{" + extraLabel + "}"
		} else {
			labels = labels[:len(labels)-1] + "," + extraLabel + "}"
		}
	}
	return fmt.Sprintf("%s%s%s %v\n", s.name, suffix, labels, value)
}

// WriteProm writes s as Prometheus text exposition, sorted by instrument name
// so scrapes are diffable. Histograms render as the conventional cumulative
// _bucket series (le in nanoseconds, closed by +Inf) plus _sum and _count.
func WriteProm(w io.Writer, s Snapshot) {
	typed := make(map[string]bool) // one # TYPE line per metric name

	writeType := func(name, kind string) {
		if !typed[name] {
			typed[name] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		}
	}

	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ps := promParse(n)
		writeType(ps.name, "counter")
		io.WriteString(w, ps.line("", "", s.Counters[n]))
	}

	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ps := promParse(n)
		writeType(ps.name, "gauge")
		io.WriteString(w, ps.line("", "", s.Gauges[n]))
	}

	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		ps := promParse(n)
		writeType(ps.name, "histogram")
		cum := uint64(0)
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			io.WriteString(w, ps.line("_bucket", fmt.Sprintf(`le="%d"`, bound), cum))
		}
		io.WriteString(w, ps.line("_bucket", `le="+Inf"`, h.Count))
		io.WriteString(w, ps.line("_sum", "", h.Sum))
		io.WriteString(w, ps.line("_count", "", h.Count))
	}
}
