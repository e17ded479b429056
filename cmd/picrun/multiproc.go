package main

// Multi-process mode: with -transport tcp|unix, picrun runs each rank in
// its own OS process, connected by the wire transport in internal/comm/wire.
// The coordinator (the picrun the user invoked) hands the run to the
// engine's one supervisor, driver.Engine.RunElastic: it starts a
// rendezvous listener, forks one worker process per remaining rank —
// re-executing itself with -join <addr> — and hosts world rank 0, so
// results are reported exactly as in the in-process mode. With -recover
// the same supervisor rolls back after a rank loss, and the coordinator
// re-forks replacements for its dead workers. Every worker runs
// driver.Engine.RunElasticWorker, which retries its join with backoff.
// Remote workers can be attached by hand: start the coordinator with
// -spawn 0 -listen host:port and run `picrun <same flags> -join host:port`
// elsewhere.

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/driver"
)

// runOptions is the subset of flags the run-mode logic needs, separated
// from main's flag block so validation is unit-testable.
type runOptions struct {
	impl      string
	ranks     int
	steps     int
	n         int
	workers   int
	transport string
	join      string
	spawn     int
	ckptEvery int
	recover   bool
}

// validateOptions rejects malformed run shapes with actionable errors
// before any listener is opened or process forked.
func validateOptions(o runOptions) error {
	if o.ranks <= 0 {
		return fmt.Errorf("-p must be positive, got %d", o.ranks)
	}
	if o.steps <= 0 {
		return fmt.Errorf("-steps must be positive, got %d", o.steps)
	}
	if o.n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", o.n)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers must be positive or 0 for automatic, got %d", o.workers)
	}
	switch o.transport {
	case driver.TransportInproc, driver.TransportTCP, driver.TransportUnix:
	default:
		return fmt.Errorf("unknown -transport %q (want %s, %s or %s)",
			o.transport, driver.TransportInproc, driver.TransportTCP, driver.TransportUnix)
	}
	if o.transport == driver.TransportInproc {
		if o.join != "" {
			return fmt.Errorf("-join needs a wire transport: add -transport tcp or -transport unix")
		}
		if o.spawn > 0 {
			return fmt.Errorf("-spawn needs a wire transport: add -transport tcp or -transport unix")
		}
	}
	if o.impl == "serial" && (o.transport != driver.TransportInproc || o.join != "") {
		return fmt.Errorf("-impl serial runs in one process and has no transport")
	}
	if o.ckptEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be positive or 0 to disable, got %d", o.ckptEvery)
	}
	if o.recover {
		if o.ckptEvery == 0 {
			return fmt.Errorf("-recover needs checkpoints to roll back to: add -checkpoint-every N")
		}
		if o.transport == driver.TransportInproc {
			return fmt.Errorf("-recover needs a wire transport: add -transport tcp or -transport unix")
		}
	}
	if o.spawn >= 0 && o.spawn > o.ranks-1 {
		return fmt.Errorf("-spawn %d exceeds the %d non-coordinator ranks", o.spawn, o.ranks-1)
	}
	return nil
}

// effectiveSpawn resolves -spawn: by default the coordinator forks every
// non-coordinator rank locally; a smaller count leaves slots for workers
// joining from elsewhere.
func (o runOptions) effectiveSpawn() int {
	if o.spawn >= 0 {
		return o.spawn
	}
	return o.ranks - 1
}

// workerArgs rebuilds the command line for a forked worker: every flag the
// user set, minus the coordinator-only ones, plus -join. Passing the flags
// through (rather than a serialized config) keeps workers runnable by hand
// on other hosts with the exact same invocation.
func workerArgs(rendezvousAddr string) []string {
	// Coordinator-only flags are withheld; -timeline and -dumpstate pass
	// through because cfg.Telemetry and cfg.DistributedVerify must match on
	// every rank (both decide what the end-of-run gather carries) — workers
	// record samples and send their particles, only rank 0 writes.
	skip := map[string]bool{
		"join": true, "listen": true, "spawn": true,
		"http": true, "cpuprofile": true, "memprofile": true,
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if !skip[f.Name] {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	return append(args, "-join="+rendezvousAddr)
}

// workerProc tracks one forked worker so the coordinator can tell dead
// processes (to be replaced) from live ones (which rejoin on their own),
// and report how a worker exited.
type workerProc struct {
	done chan struct{}
	err  error // cmd.Wait's result, set before done closes
}

func (w *workerProc) dead() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

// runElasticCoordinator executes a multi-process run from the user's
// picrun: the engine's RunElastic supervisor owns the rendezvous/run loop,
// and this side supplies the process management — fork the initial local
// workers, and after a rank loss under -recover reap the dead ones and fork
// replacements into the re-opened rendezvous. Externally joined workers
// are the user's to re-join (the rendezvous address stays the same across
// generations).
func runElasticCoordinator(eng *driver.Engine, o runOptions, listen string, report func(*driver.Result, error)) {
	network := o.transport
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	spawn := o.effectiveSpawn()
	var procs []*workerProc
	fork := func(addr string, replacement bool) error {
		cmd := exec.Command(exe, workerArgs(addr)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if replacement {
			// The chaos kill targets the first world generation only: a
			// replacement inheriting the armed hook would crash again at the
			// same step after every rollback, and the run would burn through
			// its recovery budget re-killing its own replacements.
			cmd.Env = environWithout(chaosKillEnv)
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		w := &workerProc{done: make(chan struct{})}
		go func() {
			w.err = cmd.Wait()
			close(w.done)
		}()
		procs = append(procs, w)
		return nil
	}
	spawnWorkers := func(gen int, addr string) error {
		if gen == 0 {
			if spawn < o.ranks-1 {
				fmt.Printf("rendezvous: %s %s — waiting for %d externally joined rank(s)\n",
					network, addr, o.ranks-1-spawn)
			}
			for i := 0; i < spawn; i++ {
				if err := fork(addr, false); err != nil {
					return fmt.Errorf("forking worker %d: %w", i, err)
				}
			}
			return nil
		}
		// A rank was lost: give the OS a moment to reap the dead child (a
		// SIGKILLed process shows up within milliseconds; the wait only runs
		// long when the lost rank was an external worker), then fork one
		// replacement per dead local worker. Survivors rejoin by themselves.
		deadline := time.Now().Add(5 * time.Second)
		for {
			dead := 0
			for _, w := range procs {
				if w.dead() {
					dead++
				}
			}
			if dead > 0 || time.Now().After(deadline) {
				alive := procs[:0]
				for _, w := range procs {
					if !w.dead() {
						alive = append(alive, w)
					}
				}
				procs = alive
				if dead == 0 {
					fmt.Printf("recovery: no dead local worker; waiting for an external re-join at %s %s\n", network, addr)
				}
				for i := 0; i < dead; i++ {
					fmt.Printf("recovery: re-forking a replacement worker (generation %d)\n", gen)
					if err := fork(addr, true); err != nil {
						return fmt.Errorf("re-forking replacement: %w", err)
					}
				}
				return nil
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	res, runErr := eng.RunElastic(driver.ElasticOptions{
		Network: network, Listen: listen, Ranks: o.ranks,
		SpawnWorkers: spawnWorkers, Bind: bindFor(network, listen),
	})
	// Under -recover a worker's exit code is not propagated: the victim of a
	// recovered crash exits nonzero by design, and any failure that
	// actually sank the run already surfaced through RunElastic. Without
	// it, a failed worker fails the run.
	for i, w := range procs {
		<-w.done
		if w.err != nil && runErr == nil && !o.recover {
			runErr = fmt.Errorf("worker %d: %w", i, w.err)
		}
	}
	report(res, runErr)
}

// environWithout returns the current environment minus one variable.
func environWithout(name string) []string {
	env := os.Environ()
	out := env[:0]
	for _, kv := range env {
		if !strings.HasPrefix(kv, name+"=") {
			out = append(out, kv)
		}
	}
	return out
}

// bindFor picks the mesh-listener bind address for a node: loopback runs
// can leave it empty (wire defaults apply); a coordinator listening on a
// routable address advertises the same host for its mesh listener so remote
// workers can dial back.
func bindFor(network, listen string) string {
	if network != driver.TransportTCP {
		return ""
	}
	host, _, ok := strings.Cut(listen, ":")
	if !ok || host == "" || host == "127.0.0.1" || host == "localhost" {
		return ""
	}
	return host + ":0"
}

// chaosKillEnv, when set to "rank:step" in a worker's environment, arms a
// self-inflicted SIGKILL: the worker holding that rank kills its own
// process at the top of that step — no shutdown handshake, no flushed
// buffers, exactly what an external `kill -9` produces. The chaos e2e test
// and the CI recovery job use it to crash a rank at a deterministic point.
const chaosKillEnv = "PICRUN_CHAOS_KILL"

// chaosKillHook parses a chaosKillEnv spec into a step hook. The hook
// disarms itself on every process the first time its world passes the kill
// step: after the rollback the re-executed steps must not re-trigger the
// crash on a survivor that was re-admitted under the victim's rank.
func chaosKillHook(spec string) (func(*comm.Comm, int), error) {
	rankStr, stepStr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("%s=%q: want rank:step", chaosKillEnv, spec)
	}
	rank, err1 := strconv.Atoi(rankStr)
	step, err2 := strconv.Atoi(stepStr)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("%s=%q: want rank:step", chaosKillEnv, spec)
	}
	armed := true
	return func(c *comm.Comm, st int) {
		if !armed || st < step {
			return
		}
		if st == step && c.Rank() == rank {
			p, _ := os.FindProcess(os.Getpid())
			_ = p.Kill()
			select {} // never step past a pending SIGKILL
		}
		armed = false
	}, nil
}

// runWorker executes the worker side of a multi-process run: join the
// coordinator's rendezvous (retrying with backoff for up to 30 s), host the
// assigned rank, and exit. Results are reported by the process hosting rank
// 0, so a worker is silent on success. With -recover armed, a lost peer
// means "the supervisor is rolling the world back": the worker rejoins the
// same rendezvous address instead of exiting (Engine.RunElasticWorker owns
// that loop).
func runWorker(eng *driver.Engine, o runOptions) {
	if spec := os.Getenv(chaosKillEnv); spec != "" {
		hook, err := chaosKillHook(spec)
		if err != nil {
			fatal(err)
		}
		eng.StepHook = hook
	}
	if err := eng.RunElasticWorker(o.transport, o.join); err != nil {
		fatal(err)
	}
}

// writeState dumps the verified global final state and the balance log in a
// deterministic text form — float bits in hex, one particle per line
// (core.SoA.AppendStateLine) — so two runs can be compared for bitwise
// identity with a file diff. Requires -verify (the gather that assembles the
// global state).
func writeState(path string, res *driver.Result) error {
	if res.Particles == nil {
		return fmt.Errorf("-dumpstate needs -verify=true (the gathered state)")
	}
	return writeFileWith(path, func(f *os.File) error {
		w := bufio.NewWriter(f)
		var line []byte
		for i := range res.Particles.Len() {
			line = res.Particles.AppendStateLine(line[:0], i)
			w.Write(line)
		}
		for _, line := range res.BalanceLog {
			fmt.Fprintf(w, "balance %s\n", line)
		}
		return w.Flush()
	})
}
