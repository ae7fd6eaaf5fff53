package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// exposition is one parsed scrape, keyed by series name plus its sorted
// label set. Both lserved's /metrics and an in-process
// locsample.Metrics (through WritePrometheus) go through parseExposition,
// so every per-layer number is a delta of the program's own counters.
type exposition map[string]series

// parseExposition reads the Prometheus text format: comment and blank
// lines are skipped, every other line is `name{k="v",...} value` with
// an optional trailing timestamp.
func parseExposition(r io.Reader) (exposition, error) {
	e := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		s, err := parseSeries(text)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", line, err)
		}
		e[seriesKey(s.name, s.labels)] = s
	}
	return e, sc.Err()
}

func parseSeries(text string) (series, error) {
	s := series{labels: map[string]string{}}
	end := strings.IndexAny(text, "{ ")
	if end <= 0 {
		return s, fmt.Errorf("no value in %q", text)
	}
	s.name, text = text[:end], text[end:]
	if text[0] == '{' {
		rest, err := parseLabels(text[1:], s.labels)
		if err != nil {
			return s, err
		}
		text = rest
	}
	fields := strings.Fields(text)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want value [timestamp] after %s, got %q", s.name, text)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("value of %s: %w", s.name, err)
	}
	s.value = v
	return s, nil
}

// parseLabels consumes `k="v",...}` into into and returns what follows
// the closing brace. Values may contain the escapes \\, \" and \n.
func parseLabels(text string, into map[string]string) (string, error) {
	for {
		text = strings.TrimLeft(text, " ,")
		if strings.HasPrefix(text, "}") {
			return text[1:], nil
		}
		eq := strings.Index(text, `="`)
		if eq <= 0 {
			return "", fmt.Errorf("malformed label set at %q", text)
		}
		key := text[:eq]
		text = text[eq+2:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(text); i++ {
			c := text[i]
			if c == '\\' && i+1 < len(text) {
				i++
				switch text[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(text[i])
				}
				continue
			}
			if c == '"' {
				text = text[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return "", fmt.Errorf("unterminated value of label %s", key)
		}
		into[key] = val.String()
	}
}

func seriesKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%q", k, labels[k])
	}
	return b.String()
}

// delta returns after minus before, series by series. A series missing
// from before counts from zero (it was registered during the window).
func (after exposition) delta(before exposition) exposition {
	d := make(exposition, len(after))
	for k, s := range after {
		s.value -= before[k].value
		d[k] = s
	}
	return d
}

// sum adds up every series called name whose labels include each
// key/value pair in match (given as k1, v1, k2, v2, ...). Histogram
// totals are read as name_sum and name_count.
func (e exposition) sum(name string, match ...string) float64 {
	total := 0.0
	for _, s := range e {
		if s.name != name || !hasLabels(s.labels, match) {
			continue
		}
		total += s.value
	}
	return total
}

func hasLabels(labels map[string]string, match []string) bool {
	for i := 0; i+1 < len(match); i += 2 {
		if labels[match[i]] != match[i+1] {
			return false
		}
	}
	return true
}
