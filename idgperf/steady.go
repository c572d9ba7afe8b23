package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs the workload k times, each in its own process with
// the next seed, and prints every end-to-end metric's median,
// quartiles and (q3 - q1) / median: the evidence behind the bounds in
// BENCHMARK.json.
func steadiness(w *workload, seed int64, seconds, k int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "idgperf: %v\n", err)
		return 1
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "idgperf: run with seed %d: %v\n", s, err)
			return 1
		}
		rep, err := lastReport(out)
		if err != nil {
			fmt.Fprintf(stderr, "idgperf: run with seed %d: %v\n", s, err)
			return 1
		}
		if !rep.Correct {
			fmt.Fprintf(stderr, "idgperf: run with seed %d failed %d of %d ops\n", s, rep.Failed, rep.Attempted)
			return 1
		}
		// Keep the run's diagnostics (host drift probe, workload
		// extras) with its numbers.
		for _, l := range bytes.Split(out, []byte("\n")) {
			if bytes.HasPrefix(l, []byte("# ")) && !bytes.HasPrefix(l, []byte("# workload")) && !bytes.HasPrefix(l, []byte("# shape")) {
				fmt.Fprintf(stdout, "  seed %d %s\n", s, l[2:])
			}
		}
		line := fmt.Sprintf("seed %d:", s)
		for _, name := range sortedKeys(rep.Metrics) {
			m := rep.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			line += fmt.Sprintf(" %s=%.4f", name, m.Value)
		}
		fmt.Fprintln(stdout, line)
	}
	if k < 2 {
		return 0
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-14s %12s %12s %12s %10s  (%s, %d runs)\n", "metric", "q1", "median", "q3", "spread", w.name, k)
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		fmt.Fprintf(stdout, "%-14s %12.4f %12.4f %12.4f %9.2f%%  %s\n", name, q1, med, q3,
			100*relativeSpread(values[name]), units[name])
	}
	return 0
}

// lastReport decodes the JSON report on the last non-empty line.
func lastReport(out []byte) (*report, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, fmt.Errorf("no JSON report on the last line: %w", err)
	}
	return &rep, nil
}
