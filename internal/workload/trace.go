package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Trace I/O: the CSV interchange format of `deeprecsys loadgen`
// ("arrival_sec,size" header followed by one row per query). WriteTrace and
// ReadTrace round-trip exactly, so traces captured from production systems —
// or generated once and versioned — can be replayed deterministically
// through the serving simulator (`deeprecsys replay`).

// WriteTrace emits queries as CSV.
func WriteTrace(w io.Writer, queries []Query) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "arrival_sec,size"); err != nil {
		return err
	}
	for _, q := range queries {
		if _, err := fmt.Fprintf(bw, "%.9f,%d\n", q.Arrival.Seconds(), q.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a CSV trace. Queries must be in non-decreasing arrival
// order with sizes in [1, MaxQuerySize]; violations are reported with their
// line number, because a mis-sorted trace silently corrupts every latency
// percentile downstream.
func ReadTrace(r io.Reader) ([]Query, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("workload: empty trace")
	}
	if got := strings.TrimSpace(sc.Text()); got != "arrival_sec,size" {
		return nil, fmt.Errorf("workload: bad trace header %q", got)
	}
	var queries []Query
	line := 1
	var prev time.Duration
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("workload: trace line %d: want 2 fields, got %d", line, len(parts))
		}
		sec, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || sec < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad arrival %q", line, parts[0])
		}
		size, err := strconv.Atoi(parts[1])
		if err != nil || size < 1 || size > MaxQuerySize {
			return nil, fmt.Errorf("workload: trace line %d: bad size %q", line, parts[1])
		}
		arrival := time.Duration(sec * float64(time.Second))
		if arrival < prev {
			return nil, fmt.Errorf("workload: trace line %d: arrivals not sorted (%v after %v)", line, arrival, prev)
		}
		prev = arrival
		queries = append(queries, Query{ID: len(queries), Size: size, Arrival: arrival})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("workload: trace has no queries")
	}
	return queries, nil
}
