package main

import (
	"net/http"
	"strings"
	"testing"
	"time"
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

// TestNewHTTPServerTimeouts pins the serve listener's time limits: a slow or
// stalled client must not hold a handler for ever.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	s := newHTTPServer(":0", h)
	if s.Addr != ":0" || s.Handler != h {
		t.Errorf("server on %q with handler %v, want :0 and the one given", s.Addr, s.Handler)
	}
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"ReadHeaderTimeout", s.ReadHeaderTimeout, readHeaderTimeout},
		{"ReadTimeout", s.ReadTimeout, readTimeout},
		{"WriteTimeout", s.WriteTimeout, writeTimeout},
		{"IdleTimeout", s.IdleTimeout, idleTimeout},
	} {
		if c.got != c.want || c.got <= 0 {
			t.Errorf("%s = %v, want %v (positive)", c.name, c.got, c.want)
		}
	}
}
