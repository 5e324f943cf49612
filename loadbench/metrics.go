package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one process's /metrics exposition: sample value by series
// name including its label block, e.g. rrc_http_request_seconds_sum{endpoint="/consume"}.
type scrape map[string]float64

// parseMetrics reads the Prometheus text format, skipping comments.
func parseMetrics(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

func fetchMetrics(base string) (scrape, error) {
	resp, err := probeClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseMetrics(resp.Body)
}

// delta returns after − before for every series in after. A series
// absent before counts from zero.
func delta(before, after scrape) scrape {
	out := scrape{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of family name whose label block contains all
// of the given label pairs (e.g. `endpoint="/consume"`).
func (s scrape) sum(name string, labels ...string) float64 {
	var total float64
	for k, v := range s {
		fam, lbl, _ := strings.Cut(k, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// histMean is a histogram's mean over the series selected by labels:
// Δsum ÷ Δcount, or 0 when nothing was observed.
func (s scrape) histMean(name string, labels ...string) float64 {
	n := s.sum(name+"_count", labels...)
	if n == 0 {
		return 0
	}
	return s.sum(name+"_sum", labels...) / n
}

// addScrapes merges several processes' deltas by summing series.
func addScrapes(ss ...scrape) scrape {
	out := scrape{}
	for _, s := range ss {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}
