package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): one HELP and TYPE line per family,
// then each series' samples, each line ending at its value (the format has
// no exemplar syntax). Histograms render cumulative le-buckets plus _sum and
// _count, with bucket bounds in seconds. Rendering takes the
// registry read lock (registration is wiring-time only, so contention is
// nil) and reads each atomic exactly once per sample; a histogram scraped
// mid-Observe may transiently show count ahead of its +Inf bucket by the
// in-flight observation, which Prometheus tolerates (the next scrape
// converges).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.families {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch {
			case s.c != nil:
				writeSample(bw, f.name, s.labels, "", float64(s.c.Value()))
			case s.cf != nil:
				writeSample(bw, f.name, s.labels, "", float64(s.cf()))
			case s.gf != nil:
				writeSample(bw, f.name, s.labels, "", s.gf())
			case s.h != nil:
				writeHistogram(bw, f.name, s)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative buckets in
// ascending le order, the +Inf bucket, then _sum (seconds) and _count.
func writeHistogram(w io.Writer, name string, s *series) {
	h := s.h
	var cum int64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		writeSample(w, name+"_bucket", s.labels, `le="`+formatFloat(b.Seconds())+`"`, float64(cum))
	}
	cum += h.buckets[len(h.bounds)].Load()
	writeSample(w, name+"_bucket", s.labels, `le="+Inf"`, float64(cum))
	writeSample(w, name+"_sum", s.labels, "", h.Sum().Seconds())
	writeSample(w, name+"_count", s.labels, "", float64(cum))
}

// writeSample writes one sample line, joining up to two pre-rendered label
// fragments. Counters and bucket counts format without an exponent so
// grep-based CI assertions read them naturally.
func writeSample(w io.Writer, name, l1, l2 string, v float64) {
	labels := l1
	if l2 != "" {
		if labels != "" {
			labels += ","
		}
		labels += l2
	}
	if labels != "" {
		fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatFloat(v))
		return
	}
	fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
}

// formatFloat renders a value the shortest way that round-trips; integral
// values under 2^53 render as plain integers.
func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

// Handler returns the GET /metrics endpoint over this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// ParseExposition is a strict parser for the Prometheus text format, used
// by the test suites (and scriptable smoke checks) to prove /metrics
// output is well-formed without importing a Prometheus client. It returns
// every sample keyed by "name{labels}" exactly as rendered, and errors on:
// samples without a preceding TYPE, malformed metric names or label
// syntax, unparseable values, and duplicate sample keys.
func ParseExposition(r io.Reader) (map[string]float64, error) {
	samples := make(map[string]float64)
	typed := make(map[string]string) // family name → type
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			kind, name, rest, err := parseComment(text)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if kind == "TYPE" {
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: bad TYPE %q", line, rest)
				}
				if _, dup := typed[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", line, name)
				}
				typed[name] = rest
			}
			continue
		}
		name, labels, value, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if _, ok := typed[name]; !ok {
			if _, ok := typed[base]; !ok {
				return nil, fmt.Errorf("line %d: sample %s has no TYPE", line, name)
			}
		}
		key := name
		if labels != "" {
			key += "{" + labels + "}"
		}
		if _, dup := samples[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %s", line, key)
		}
		samples[key] = value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

func parseComment(text string) (kind, name, rest string, err error) {
	fields := strings.SplitN(text, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", fmt.Errorf("bad comment %q", text)
	}
	kind = fields[1]
	if kind != "HELP" && kind != "TYPE" {
		return "", "", "", fmt.Errorf("bad comment kind %q", kind)
	}
	name = fields[2]
	if !metricNameValid(name) {
		return "", "", "", fmt.Errorf("bad metric name %q", name)
	}
	if len(fields) == 4 {
		rest = fields[3]
	}
	return kind, name, rest, nil
}

func parseSample(text string) (name, labels string, value float64, err error) {
	rest := text
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unterminated labels in %q", text)
		}
		labels = rest[i+1 : j]
		if err := checkLabelSyntax(labels); err != nil {
			return "", "", 0, fmt.Errorf("%w in %q", err, text)
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", "", 0, fmt.Errorf("bad sample %q", text)
		}
		name, rest = fields[0], fields[1]
	}
	if !metricNameValid(name) {
		return "", "", 0, fmt.Errorf("bad metric name %q", name)
	}
	v, perr := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if perr != nil {
		return "", "", 0, fmt.Errorf("bad value in %q: %v", text, perr)
	}
	return name, labels, v, nil
}

// checkLabelSyntax validates a rendered label body: name="value" pairs,
// comma-separated, with closed quotes.
func checkLabelSyntax(labels string) error {
	rest := labels
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 {
			return fmt.Errorf("bad label pair %q", rest)
		}
		lname := rest[:eq]
		// le="+Inf" etc: label names share the metric grammar minus colons.
		if !metricNameValid(lname) || strings.Contains(lname, ":") {
			return fmt.Errorf("bad label name %q", lname)
		}
		rest = rest[eq+1:]
		if len(rest) < 2 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value after %q", lname)
		}
		rest = rest[1:]
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("unterminated label value for %q", lname)
		}
		rest = rest[end+1:]
		if rest != "" {
			if rest[0] != ',' {
				return fmt.Errorf("junk after label %q", lname)
			}
			rest = rest[1:]
		}
	}
	return nil
}
