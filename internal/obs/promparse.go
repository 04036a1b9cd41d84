package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// A minimal Prometheus text-exposition (0.0.4) parser: just enough
// grammar to validate what WritePrometheus and the compactd /metrics
// endpoint emit, kept in-tree so CI can check the scrape output
// without pulling a client library. It understands # TYPE/# HELP
// comments, samples with an optional label set, and the histogram
// suffix conventions; it rejects anything structurally unsound
// (samples without a family, non-cumulative buckets, +Inf/_count
// disagreement).

// PromSample is one exposition line: a metric name, its labels, and
// the value.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily is one `# TYPE` group, its `# HELP` text, and the
// samples under it.
type PromFamily struct {
	Name    string
	Type    string // "counter", "gauge", "histogram", "untyped"
	Help    string // empty when the family has no # HELP line
	Samples []PromSample
}

// ParsePrometheus parses an exposition document into its families, in
// document order, validating structure as it goes.
func ParsePrometheus(data []byte) ([]PromFamily, error) {
	var fams []PromFamily
	byName := map[string]*PromFamily{}
	help := map[string]string{}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 3 && fields[1] == "HELP" {
				help[fields[2]] = strings.Join(fields[3:], " ")
				continue
			}
			if len(fields) != 4 || fields[1] != "TYPE" {
				return nil, fmt.Errorf("prom: line %d: malformed comment %q", ln+1, line)
			}
			name, typ := fields[2], fields[3]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("prom: line %d: unknown type %q", ln+1, typ)
			}
			if byName[name] != nil {
				return nil, fmt.Errorf("prom: line %d: duplicate TYPE for %q", ln+1, name)
			}
			fams = append(fams, PromFamily{Name: name, Type: typ})
			byName[name] = &fams[len(fams)-1]
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("prom: line %d: %w", ln+1, err)
		}
		fam := byName[familyOf(s.Name, byName)]
		if fam == nil {
			return nil, fmt.Errorf("prom: line %d: sample %q has no # TYPE family", ln+1, s.Name)
		}
		fam.Samples = append(fam.Samples, s)
	}
	for i := range fams {
		fams[i].Help = help[fams[i].Name]
		if err := validatePromFamily(&fams[i]); err != nil {
			return nil, err
		}
	}
	return fams, nil
}

// familyOf resolves a sample name to its family name, stripping the
// histogram suffixes when the base name is a declared histogram.
func familyOf(name string, byName map[string]*PromFamily) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && byName[base] != nil && byName[base].Type == "histogram" {
			return base
		}
	}
	return name
}

func parsePromSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else if rest[i] == '{' {
		s.Name = rest[:i]
		end := strings.Index(rest, "}")
		if end < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		for _, kv := range strings.Split(rest[i+1:end], ",") {
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return s, fmt.Errorf("malformed label %q", kv)
			}
			uq, err := strconv.Unquote(v)
			if err != nil {
				return s, fmt.Errorf("label value %s: %w", v, err)
			}
			s.Labels[k] = uq
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		s.Name = rest[:i]
		rest = strings.TrimSpace(rest[i+1:])
	}
	// Value, optionally followed by a timestamp (which we ignore).
	val := rest
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		val = rest[:i]
	}
	v, err := parsePromValue(val)
	if err != nil {
		return s, fmt.Errorf("value %q: %w", val, err)
	}
	s.Value = v
	return s, nil
}

func parsePromValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(v, 64)
}

// validatePromFamily checks per-type structure; for histograms, that
// buckets are cumulative, ordered by le, and agree with _count.
func validatePromFamily(f *PromFamily) error {
	if f.Type != "histogram" {
		for _, s := range f.Samples {
			if s.Name != f.Name {
				return fmt.Errorf("prom: family %s contains foreign sample %s", f.Name, s.Name)
			}
		}
		return nil
	}
	var buckets []PromSample
	var count, sum *PromSample
	for i := range f.Samples {
		s := &f.Samples[i]
		switch s.Name {
		case f.Name + "_bucket":
			buckets = append(buckets, *s)
		case f.Name + "_count":
			count = s
		case f.Name + "_sum":
			sum = s
		default:
			return fmt.Errorf("prom: histogram %s contains foreign sample %s", f.Name, s.Name)
		}
	}
	if count == nil || sum == nil || len(buckets) == 0 {
		return fmt.Errorf("prom: histogram %s is missing _bucket/_sum/_count", f.Name)
	}
	les := make([]float64, len(buckets))
	for i, b := range buckets {
		le, err := parsePromValue(b.Labels["le"])
		if err != nil {
			return fmt.Errorf("prom: histogram %s: bad le %q", f.Name, b.Labels["le"])
		}
		les[i] = le
	}
	if !sort.Float64sAreSorted(les) {
		return fmt.Errorf("prom: histogram %s: le edges out of order", f.Name)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Value < buckets[i-1].Value {
			return fmt.Errorf("prom: histogram %s: bucket counts not cumulative at le=%q", f.Name, buckets[i].Labels["le"])
		}
	}
	last := buckets[len(buckets)-1]
	if !math.IsInf(les[len(les)-1], 1) {
		return fmt.Errorf("prom: histogram %s: missing +Inf bucket", f.Name)
	}
	if last.Value != count.Value {
		return fmt.Errorf("prom: histogram %s: +Inf bucket %v != count %v", f.Name, last.Value, count.Value)
	}
	return nil
}
