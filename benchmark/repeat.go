package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the repeat mode and the
// smoke test read.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// repeatSuite runs every workload n times, untraced, each run in a
// process of its own with a seed of its own, reversing the workload
// order on every other pass so that drift of the host does not line up
// with one workload. It prints, for every workload and end-to-end
// metric, the median, the quartiles and the relative spread (IQR over
// median, as the driver computes it) against the bound in
// BENCHMARK.json: the calibration table of README.md.
func repeatSuite(n int, seed uint64, seconds float64, w io.Writer) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("repeat mode reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string]map[string][]float64) // workload → metric → one value per pass
	for pass := 0; pass < n; pass++ {
		for i := range workloads {
			ws := workloads[i]
			if pass%2 == 1 {
				ws = workloads[len(workloads)-1-i]
			}
			rec, err := runSelf(self, ws.name, seed+uint64(pass), seconds)
			if err != nil {
				if rec != nil {
					err = fmt.Errorf("%w: attempted %d, failed %d, %v", err, rec.Result.Attempted, rec.Result.Failed, rec.Notes)
				}
				return fmt.Errorf("pass %d, %s: %w", pass, ws.name, err)
			}
			if values[ws.name] == nil {
				values[ws.name] = make(map[string][]float64)
			}
			for name, m := range rec.Result.Metrics {
				values[ws.name][name] = append(values[ws.name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "pass %d %s done\n", pass, ws.name)
		}
	}
	fmt.Fprintf(w, "| workload | metric | runs | median | q1 | q3 | IQR/median | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, ws := range workloads {
		for _, m := range bf.EndToEnd {
			v := values[ws.name][m.Name]
			if len(v) < 2 {
				fmt.Fprintf(w, "| %s | %s | %d | %.6g | | | | %.2f | too few runs for a spread |\n", ws.name, m.Name, len(v), median(v), m.Bound)
				continue
			}
			q1, q2, q3 := quartiles(v)
			spread := iqrRel(v)
			verdict := "above the bound"
			switch {
			case spread <= m.Bound/3:
				verdict = "steady (a third of the bound or less)"
			case spread <= m.Bound:
				verdict = "within the bound"
			}
			fmt.Fprintf(w, "| %s | %s | %d | %.6g | %.6g | %.6g | %.4f | %.2f | %s |\n", ws.name, m.Name, len(v), q2, q1, q3, spread, m.Bound, verdict)
		}
	}
	return nil
}

// runSelf runs one untraced workload in a process of its own, as the
// driver does, and returns its record: the first line of its standard
// output. A run that printed its record and then exited non-zero,
// because operations failed, returns both the record and the error.
func runSelf(self, workload string, seed uint64, seconds float64) (*record, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stdout, cmd.Stderr = &out, &errOut
	runErr := cmd.Run()
	if runErr != nil {
		os.Stderr.Write(errOut.Bytes())
	}
	rec := new(record)
	if err := json.NewDecoder(&out).Decode(rec); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("record: %w", err)
	}
	return rec, runErr
}
