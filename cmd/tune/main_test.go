package main

import (
	"bytes"
	"strings"
	"testing"
)

// The anytime wrapper has no algorithm, worker, interception, or MCTS policy
// knobs: setting one explicitly next to -anytime is a usage error instead of
// a silently ignored flag.
func TestAnytimeRejectsIgnoredFlags(t *testing.T) {
	for _, flag := range [][]string{
		{"-alg", "vanilla"},
		{"-workers", "4"},
		{"-derive-epsilon", "0.1"},
		{"-policy", "uct"},
		{"-rave"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-anytime", "-budget", "5"}, flag...)
		if code := run(args, &stdout, &stderr); code != exitUsage {
			t.Fatalf("%v: exit %d, want %d (stderr %q)", args, code, exitUsage, stderr.String())
		}
		if want := flag[0] + " cannot be combined with -anytime"; !strings.Contains(stderr.String(), want) {
			t.Fatalf("%v: stderr %q does not name the flag (%q)", args, stderr.String(), want)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v: rejected run printed %q", args, stdout.String())
		}
	}
}

// Flags left at their defaults, and flags the anytime wrapper honours, do
// not trip the check.
func TestAnytimeAcceptsHonouredFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-anytime", "-budget", "5", "-k", "3", "-seed", "2", "-stop-epsilon", "0"}
	if code := run(args, &stdout, &stderr); code != exitOK {
		t.Fatalf("%v: exit %d (stderr %q)", args, code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "MCTS (anytime)") {
		t.Fatalf("anytime run did not report its algorithm:\n%s", stdout.String())
	}
}

// -explain prints the first query's plan after tuning, and its help text
// says so.
func TestExplainPrintsFirstQueryPlan(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != exitOK {
		t.Fatalf("-h: exit %d", code)
	}
	if want := "plan of the workload's first query under the recommendation"; !strings.Contains(stderr.String(), want) {
		t.Fatalf("-explain help does not read %q:\n%s", want, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-budget", "30", "-k", "2", "-explain"}, &stdout, &stderr); code != exitOK {
		t.Fatalf("-explain: exit %d (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "plan of the first query under the recommendation:") {
		t.Fatalf("-explain printed no plan:\n%s", stdout.String())
	}
}
