package main

import (
	"bytes"
	"errors"
	"flag"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownNamesFailCleanly pins the CLI's bad-input contract for
// -methods and -datasets: every subcommand that reads them rejects an
// unknown name with one "fedsim: ..." line and exit status 2, before it
// prints anything or starts any work.
func TestUnknownNamesFailCleanly(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "fedsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"table1", "-quick", "-methods", "FedNope"},
		{"table1", "-quick", "-datasets", "nope"},
		{"table1", "-quick", "-datasets", "fmnist", "-methods", "FedAvg,FedNope"},
		{"stragglers", "-quick", "-methods", "FedNope"},
		{"hostile", "-quick", "-methods", "FedNope"},
		{"serve", "-quick", "-addr", "127.0.0.1:0", "-methods", "ifca"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: want exit status 2, got %v", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote to stdout before failing:\n%s", args, stdout.String())
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "fedsim: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: want one fedsim: error line, got:\n%s", args, msg)
		}
	}
}

func TestCheckNameFlagsAcceptsKnown(t *testing.T) {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	if err := checkNameFlags("table1", fs, "FedAvg,FedClust,FedBuff", "cifar10, fmnist,svhn"); err != nil {
		t.Fatal(err)
	}
}
