// Command pegasus-bench regenerates the paper's evaluation tables and
// figures (Table 2/5/6, Figure 7/8/9) on the synthetic substrate.
//
// Usage:
//
//	pegasus-bench -experiment all
//	pegasus-bench -experiment table5 -flows 90 -epochs 1.5
//
// It measures accuracy and resources, not the speed of this system:
// throughput and latency come from the benchmark in bench/
// (go run -C bench .), and profiles from pegasus-run -cpuprofile,
// go test -cpuprofile/-mutexprofile or the benchmark's --trace 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/pegasus-idp/pegasus/internal/experiments"
)

func main() {
	exp := flag.String("experiment", "all", "experiment to run: all, "+strings.Join(experiments.Names, ", "))
	flows := flag.Int("flows", 60, "flows generated per traffic class")
	epochs := flag.Float64("epochs", 1, "training budget multiplier")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	suite := experiments.NewSuite(experiments.Config{
		FlowsPerClass: *flows,
		Epochs:        *epochs,
		Seed:          *seed,
	})
	if err := suite.Run(*exp, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pegasus-bench:", err)
		os.Exit(1)
	}
}
