package main

import (
	"strings"
	"testing"
)

// TestRunExperimentsExitCodes pins the experiment CLI's up-front checks: a
// -n the generator cannot serve, a -n on an experiment that would ignore it
// and an unknown experiment are usage errors (exit 2) before anything runs,
// while every experiment that runs the Figure 1a grid honours -n.
func TestRunExperimentsExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-experiment", "fig1a", "-n", "1048576"}, 2},
		{[]string{"-experiment", "tab3a", "-n", "100"}, 2},
		{[]string{"-experiment", "fig1b", "-n", "128"}, 2},
		{[]string{"-experiment", "find8", "-n", "128"}, 0},
		{[]string{"-experiment", "find10", "-n", "128"}, 0},
		{[]string{"-experiment", "fig9"}, 2},
	}
	for _, c := range cases {
		if got := runExperiments(c.args); got != c.want {
			t.Errorf("dpbench %s: exit %d, want %d", strings.Join(c.args, " "), got, c.want)
		}
	}
}
