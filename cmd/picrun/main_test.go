package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets this test binary act as picrun itself when re-executed with
// PICRUN_BE_MAIN=1 — the coordinator's forked workers (os.Executable) then
// run main() too, so the multi-process path is tested end to end without a
// separately built binary.
func TestMain(m *testing.M) {
	if os.Getenv("PICRUN_BE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestValidateOptions(t *testing.T) {
	ok := runOptions{impl: "baseline", ranks: 4, steps: 10, n: 100, transport: "inproc"}
	if err := validateOptions(ok); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(o *runOptions)
		want string
	}{
		{"zero ranks", func(o *runOptions) { o.ranks = 0 }, "-p must be positive"},
		{"negative ranks", func(o *runOptions) { o.ranks = -2 }, "-p must be positive"},
		{"zero steps", func(o *runOptions) { o.steps = 0 }, "-steps"},
		{"negative steps", func(o *runOptions) { o.steps = -1 }, "-steps"},
		{"zero particles", func(o *runOptions) { o.n = 0 }, "-n"},
		{"negative workers", func(o *runOptions) { o.workers = -1 }, "-workers"},
		{"bogus transport", func(o *runOptions) { o.transport = "osmosis" }, "-transport"},
		{"join without wire", func(o *runOptions) { o.join = "127.0.0.1:9" }, "-join"},
		{"spawn without wire", func(o *runOptions) { o.spawn = 2 }, "-spawn"},
		{"spawn beyond ranks", func(o *runOptions) { o.transport = "tcp"; o.spawn = 4 }, "-spawn"},
		{"serial with transport", func(o *runOptions) { o.impl = "serial"; o.transport = "tcp" }, "serial"},
		{"negative checkpoint interval", func(o *runOptions) { o.ckptEvery = -3 }, "-checkpoint-every"},
		{"recover without checkpoints", func(o *runOptions) { o.transport = "tcp"; o.recover = true }, "-checkpoint-every"},
		{"recover without wire", func(o *runOptions) { o.recover = true; o.ckptEvery = 5 }, "-recover"},
	}
	for _, tc := range cases {
		o := ok
		tc.mut(&o)
		err := validateOptions(o)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// runPicrun re-executes this test binary as picrun and returns its output.
func runPicrun(t *testing.T, args ...string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "PICRUN_BE_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("picrun %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestMultiProcessBitwiseIdentity is the end-to-end acceptance check for
// picrun's multi-process mode: a forked-worker TCP run must dump the exact
// final state and balance log of the in-process run.
func TestMultiProcessBitwiseIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a process tree")
	}
	dir := t.TempDir()
	tcpState := filepath.Join(dir, "tcp.txt")
	inState := filepath.Join(dir, "inproc.txt")
	common := []string{
		"-impl=diffusion", "-p=3", "-L=16", "-n=3000", "-steps=30",
		"-r=0.9", "-every=5", "-seed=7",
	}
	out := runPicrun(t, append(common, "-transport=tcp", "-dumpstate="+tcpState)...)
	if !strings.Contains(out, "verification: PASSED") {
		t.Fatalf("tcp run did not verify:\n%s", out)
	}
	runPicrun(t, append(common, "-dumpstate="+inState)...)
	a, err := os.ReadFile(tcpState)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(inState)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty state dump")
	}
	if string(a) != string(b) {
		t.Fatal("multi-process state dump differs from the in-process run")
	}
}

// TestRecoveryEndToEnd is the chaos acceptance check for -recover through
// the real process tree: a TCP run whose rank 2 SIGKILLs itself mid-run
// (via the PICRUN_CHAOS_KILL hook — the self-kill is a real SIGKILL, so
// the sockets die with no handshake) must roll back to the last committed
// checkpoint, re-admit a re-forked replacement, and still dump the exact
// final state of an uninterrupted in-process run.
func TestRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a process tree and kills part of it")
	}
	dir := t.TempDir()
	recState := filepath.Join(dir, "recovered.txt")
	refState := filepath.Join(dir, "reference.txt")
	common := []string{
		"-impl=diffusion", "-p=3", "-L=16", "-n=3000", "-steps=40",
		"-r=0.9", "-every=5", "-seed=7",
	}
	runPicrun(t, append(common, "-dumpstate="+refState)...)

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append(common,
		"-transport=tcp", "-checkpoint-every=10", "-recover", "-dumpstate="+recState)...)
	cmd.Env = append(os.Environ(), "PICRUN_BE_MAIN=1", "PICRUN_CHAOS_KILL=2:25")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("recovery run failed: %v\n%s", err, out)
	}
	for _, want := range []string{"verification: PASSED", "rollback"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("recovery run output lacks %q:\n%s", want, out)
		}
	}
	a, err := os.ReadFile(recState)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(refState)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty state dump")
	}
	if string(a) != string(b) {
		t.Fatal("recovered run's state dump differs from the uninterrupted run")
	}
}

// TestMultiProcessLossWithoutRecover: without -recover the one supervisor
// runs a single world generation, so a rank that SIGKILLs itself mid-run
// fails the whole run — non-zero exit, the lost rank named, no rollback.
func TestMultiProcessLossWithoutRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a process tree and kills part of it")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-impl=diffusion", "-p=3", "-L=16", "-n=3000", "-steps=30",
		"-r=0.9", "-every=5", "-seed=7", "-transport=tcp")
	cmd.Env = append(os.Environ(), "PICRUN_BE_MAIN=1", "PICRUN_CHAOS_KILL=2:15")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("run survived the loss of rank 2 without -recover:\n%s", out)
	}
	if !strings.Contains(string(out), "rank 2") {
		t.Errorf("output does not name the lost rank 2:\n%s", out)
	}
	if strings.Contains(string(out), "rollback") {
		t.Errorf("run without -recover rolled back:\n%s", out)
	}
}

// TestMismatchedJoinWorkerFails: only a run that dumps its state gathers it
// to rank 0, so a -join worker started by hand without the coordinator's
// -dumpstate keeps its particles. The coordinator must refuse the partial
// state — non-zero exit, the refusal named, no dump written — rather than
// write it.
func TestMismatchedJoinWorkerFails(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a process tree")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dump := filepath.Join(t.TempDir(), "state.txt")
	common := []string{"-impl=baseline", "-p=2", "-L=16", "-n=2000", "-steps=5", "-transport=tcp"}
	coord := exec.Command(exe, append(common, "-spawn=0", "-listen=127.0.0.1:0", "-dumpstate="+dump)...)
	coord.Env = append(os.Environ(), "PICRUN_BE_MAIN=1")
	var out, errOut bytes.Buffer // stdout is read here, stderr by exec's copier
	coord.Stderr = &errOut
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	// The coordinator names its rendezvous address before it waits.
	var addr string
	sc := bufio.NewScanner(stdout)
	for addr == "" && sc.Scan() {
		fmt.Fprintln(&out, sc.Text())
		if rest, ok := strings.CutPrefix(sc.Text(), "rendezvous: tcp "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	if addr == "" {
		coord.Process.Kill()
		coord.Wait()
		t.Fatalf("coordinator named no rendezvous address:\n%s%s", out.String(), errOut.String())
	}
	worker := exec.Command(exe, append(common, "-join="+addr)...)
	worker.Env = append(os.Environ(), "PICRUN_BE_MAIN=1")
	wout, _ := worker.CombinedOutput()
	io.Copy(&out, stdout)
	err = coord.Wait()
	out.Write(errOut.Bytes())
	if err == nil {
		t.Fatalf("coordinator accepted a partial state:\n%s\nworker:\n%s", out.String(), wout)
	}
	if !strings.Contains(out.String(), "every rank must run the same Config") {
		t.Errorf("coordinator output does not name the refusal:\n%s", out.String())
	}
	if _, err := os.Stat(dump); err == nil {
		t.Error("coordinator wrote a state dump from a partial state")
	}
}

// TestCLIRejectsBadFlags: the validation must act before any fork or
// listener, with a non-zero exit and a clear message.
func TestCLIRejectsBadFlags(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-impl=baseline", "-p=0"}, "-p must be positive"},
		{[]string{"-impl=baseline", "-steps=-5"}, "-steps"},
		{[]string{"-impl=baseline", "-transport=pigeon"}, "-transport"},
		{[]string{"-impl=baseline", "-workers=-1"}, "-workers"},
		{[]string{"-impl=ampi", "-strategy=steal"}, `unknown strategy "steal"`},
	} {
		cmd := exec.Command(exe, tc.args...)
		cmd.Env = append(os.Environ(), "PICRUN_BE_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("picrun %v exited 0:\n%s", tc.args, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Fatalf("picrun %v error does not mention %q:\n%s", tc.args, tc.want, out)
		}
	}
}
