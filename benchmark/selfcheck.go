package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// simTolerance is how far a sim_* metric may move between two runs of
// one commit with one seed. Virtual time is exact everywhere except
// train_ft_crash, where the order in which survivors observe a failure
// depends on goroutine scheduling and moves the makespan by ~1e-4.
func simTolerance(workload string) float64 {
	if workload == "train_ft_crash" {
		return 5e-3
	}
	return 0
}

// childRun is one workload run in its own process (so peak RSS is per
// workload), parsed back from its output.
type childRun struct {
	res    result
	digest string
}

func runChild(workload string, seed uint64, seconds float64) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // Run waits for the child to exit
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var cr childRun
	for _, l := range lines {
		if i := strings.Index(l, " digest "); i >= 0 && strings.HasPrefix(l, "ops_attempted") {
			cr.digest = strings.TrimSpace(l[i+len(" digest "):])
		}
		if strings.HasPrefix(l, "CHECK FAILED:") {
			fmt.Println("  ", l)
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr.res); err != nil {
		return cr, fmt.Errorf("%s: no result line (%v): %v", workload, runErr, err)
	}
	if runErr != nil {
		return cr, fmt.Errorf("%s: %v", workload, runErr)
	}
	return cr, nil
}

// selfCheck runs the whole set n times and checks that the simulated
// side repeats (exactly, or within simTolerance) and the host side stays
// within each metric's bound; it prints median and quartiles per metric
// and returns the process exit code.
func selfCheck(man *manifest, n int, seed uint64, seconds float64) int {
	bad := 0
	complain := func(format string, args ...any) {
		bad++
		fmt.Printf("SELF-CHECK FAILED: "+format+"\n", args...)
	}
	for _, w := range man.Workloads {
		fmt.Printf("== %s (%d runs, seed %d, %g s)\n", w.Name, n, seed, seconds)
		var runs []childRun
		for i := 0; i < n; i++ {
			cr, err := runChild(w.Name, seed, seconds)
			if err != nil {
				complain("%v", err)
				continue
			}
			if !cr.res.Correct {
				complain("%s run %d reported correct=false", w.Name, i)
			}
			runs = append(runs, cr)
		}
		if len(runs) < 2 {
			continue
		}
		for _, r := range runs[1:] {
			if r.digest != runs[0].digest || r.res.Failed != runs[0].res.Failed {
				complain("%s: digest/failed/attempted differ between runs: %s %d/%d vs %s %d/%d", w.Name,
					runs[0].digest, runs[0].res.Failed, runs[0].res.Attempted, r.digest, r.res.Failed, r.res.Attempted)
			}
		}
		for _, d := range man.EndToEnd {
			vals := make([]float64, len(runs))
			for i, r := range runs {
				vals[i] = r.res.Metrics[d.Name].Value
			}
			med := quantile(vals, 0.5) // sorts vals
			spread := (vals[len(vals)-1] - vals[0]) / math.Abs(med)
			limit := d.Bound
			switch {
			case strings.HasPrefix(d.Name, "sim_"):
				limit = simTolerance(w.Name)
			case d.Name == "setup_s":
				limit = math.Max(d.Bound, 0.050/med) // max(bound, 50 ms)
			}
			verdict := "ok"
			if spread > limit {
				verdict = "OUT OF BOUND"
				complain("%s %s: spread %.4f over %d runs exceeds %.4f", w.Name, d.Name, spread, len(runs), limit)
			}
			fmt.Printf("  %-22s median %14.6g  q1 %14.6g  q3 %14.6g  spread %.4f (limit %.4f) %s %s\n", d.Name, med,
				quantile(vals, 0.25), quantile(vals, 0.75), spread, limit, d.Unit, verdict)
		}
		fmt.Printf("  digest %s, attempted %d, failed %d\n", runs[0].digest, runs[0].res.Attempted, runs[0].res.Failed)
	}
	if bad > 0 {
		fmt.Printf("self-check: %d problem(s)\n", bad)
		return 1
	}
	fmt.Println("self-check: sim side repeats, host side within bounds")
	return 0
}
