// Command picstat analyzes a per-step telemetry timeline written by
// `picrun -timeline`: per-phase time totals, how the load imbalance evolved
// over the run, and the steps that cost the most wall time — the §V-B lens
// on a run, from a file instead of a live cluster. With -follow it tails a
// running picrun's /events stream instead, printing one line per sample as
// it lands.
//
// Usage:
//
//	picrun -impl diffusion -p 8 -steps 500 -timeline tl.jsonl
//	picstat tl.jsonl
//	picstat -top 10 -rows 20 tl.jsonl
//	picstat -chrome trace.json tl.jsonl          # convert for Perfetto
//	picstat -chrome trace.json -clock wall tl.jsonl
//	picstat -follow localhost:6060               # tail picrun -http :6060
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/parres/picprk/internal/telemetry"
	"github.com/parres/picprk/internal/trace"
)

func main() {
	var (
		top    = flag.Int("top", 5, "worst steps to list (by wall time)")
		rows   = flag.Int("rows", 10, "max rows in the imbalance-over-time table")
		chrome = flag.String("chrome", "", "also convert the timeline to Chrome trace-event JSON at this path")
		clock  = flag.String("clock", telemetry.ClockBSP, "chrome trace clock: bsp | wall")
		follow = flag.Bool("follow", false, "treat the argument as a picrun -http address and stream live samples from its /events endpoint")
		retry  = flag.Duration("retry", time.Minute, "with -follow, keep reconnecting to a dropped /events stream for this long per outage (0 = give up on the first drop)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: picstat [-top N] [-rows N] [-chrome out.json] [-clock bsp|wall] timeline.jsonl\n       picstat -follow [-retry 1m] host:port")
		os.Exit(2)
	}

	if *follow {
		if err := followEvents(flag.Arg(0), *retry); err != nil {
			fatal(err)
		}
		return
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	tl, err := telemetry.ReadJSONL(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	printReport(tl, *top, *rows)

	if *chrome != "" {
		out, err := os.Create(*chrome)
		if err != nil {
			fatal(err)
		}
		if err := telemetry.WriteChromeTraceClock(out, tl, *clock); err != nil {
			out.Close()
			fatal(err)
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nchrome trace: wrote %s on the %s clock (load in Perfetto or chrome://tracing)\n", *chrome, *clock)
	}
}

func printReport(tl *telemetry.Timeline, top, rows int) {
	fmt.Printf("timeline: %s  P=%d  steps=%d  samples=%d", tl.Name, tl.P, tl.Steps, len(tl.Samples))
	if tl.Dropped > 0 {
		fmt.Printf("  (dropped %d oldest samples; raise the ring cap for full coverage)", tl.Dropped)
	}
	fmt.Println()
	ss := tl.StepStats()
	if len(ss) == 0 {
		fmt.Println("no samples")
		return
	}

	totals := tl.PhaseTotals()
	var grand time.Duration
	for _, p := range trace.Phases() {
		grand += totals[p]
	}
	fmt.Println("\nphase totals (CPU time summed over ranks):")
	for _, p := range trace.Phases() {
		pct := 0.0
		if grand > 0 {
			pct = 100 * float64(totals[p]) / float64(grand)
		}
		fmt.Printf("  %-9s %12v  %5.1f%%\n", p, totals[p].Round(time.Microsecond), pct)
	}
	var overlap time.Duration
	for _, st := range ss {
		overlap += st.Overlap
	}
	if overlap > 0 {
		// Overlap is not a phase of its own — the time is already inside
		// compute — so it reports as the fraction of the total exchange the
		// tile pipeline hid behind interior work.
		hidden := 100 * float64(overlap) / float64(overlap+totals[trace.Exchange])
		fmt.Printf("  overlap   %12v  (%.0f%% of exchange hidden behind compute)\n",
			overlap.Round(time.Microsecond), hidden)
	}

	fmt.Println("\nimbalance over time (per-rank particle loads):")
	fmt.Printf("  %6s  %9s  %9s  %7s  %6s  %s\n", "step", "max", "mean", "imb", "gini", "decision")
	for _, st := range sampleRows(ss, rows) {
		fmt.Printf("  %6d  %9.0f  %9.1f  %7.3f  %6.3f  %s\n",
			st.Step, st.Load.Max, st.Load.Mean, st.Load.Imbalance, st.Load.Gini, st.Decision)
	}
	first, last := ss[0], ss[len(ss)-1]
	lo, hi, decisions := first.Load.Imbalance, first.Load.Imbalance, 0
	var xbytes, mbytes int64
	for _, st := range ss {
		lo = min(lo, st.Load.Imbalance)
		hi = max(hi, st.Load.Imbalance)
		if st.Decision != "" {
			decisions++
		}
		xbytes += st.ExchangeBytes
		mbytes += st.Bytes
	}
	fmt.Printf("  imbalance first %.3f, last %.3f, min %.3f, max %.3f; %d balancing decision(s)\n",
		first.Load.Imbalance, last.Load.Imbalance, lo, hi, decisions)
	fmt.Printf("  exchanged %d bytes on the wire (framed columnar), migrated %d bytes for balancing\n",
		xbytes, mbytes)
	var msgsSent, msgsElided int64
	for i := range tl.Samples {
		msgsSent += int64(tl.Samples[i].MsgsSent)
		msgsElided += int64(tl.Samples[i].MsgsElided)
	}
	if msgsSent > 0 || msgsElided > 0 {
		share := 0.0
		if msgsSent+msgsElided > 0 {
			share = 100 * float64(msgsElided) / float64(msgsSent+msgsElided)
		}
		fmt.Printf("  exchange messages: %d sent, %d elided by the sparse neighbor schedule (%.0f%% of the full ring)\n",
			msgsSent, msgsElided, share)
	}

	if len(tl.PeerXchg) > 0 {
		printPeerMatrix(tl.PeerXchg)
	}

	if len(tl.Events) > 0 {
		commits, rollbacks, readmits := 0, 0, 0
		for _, e := range tl.Events {
			switch e.Kind {
			case telemetry.EventCommit:
				commits++
			case telemetry.EventRollback:
				rollbacks++
			case telemetry.EventReadmit:
				readmits++
			}
		}
		fmt.Printf("\nepoch lifecycle: %d commit(s), %d rollback(s), %d readmit(s)\n", commits, rollbacks, readmits)
		wallBase := tl.Events[0].WallNS
		for _, e := range tl.Events {
			wall := "-"
			if e.WallNS != 0 {
				wall = telemetry.FmtNS(e.WallNS - wallBase)
			}
			switch e.Kind {
			case telemetry.EventReadmit:
				fmt.Printf("  %10s  gen %d  %-8s  rank %d re-admitted\n", wall, e.Gen, e.Kind, e.Rank)
			default:
				fmt.Printf("  %10s  gen %d  %-8s  step %d\n", wall, e.Gen, e.Kind, e.Step)
			}
		}
	}

	fmt.Printf("\nworst %d step(s) by wall time (slowest rank sets the pace):\n", min(top, len(ss)))
	fmt.Printf("  %6s  %10s  %10s  %10s  %10s  %10s  %10s  %7s\n",
		"step", "wall", trace.Compute, trace.Exchange, "overlap", trace.Balance, trace.Migrate, "imb")
	for _, st := range telemetry.WorstSteps(ss, top) {
		fmt.Printf("  %6d  %10v  %10v  %10v  %10v  %10v  %10v  %7.3f\n",
			st.Step, st.Wall.Round(time.Microsecond),
			st.Phases[trace.Compute].Round(time.Microsecond),
			st.Phases[trace.Exchange].Round(time.Microsecond),
			st.Overlap.Round(time.Microsecond),
			st.Phases[trace.Balance].Round(time.Microsecond),
			st.Phases[trace.Migrate].Round(time.Microsecond),
			st.Load.Imbalance)
	}
}

// printPeerMatrix renders the per-peer exchange matrix: one row per sending
// rank, one column per destination, message counts with byte totals in the
// row margin. Zero cells print as "." so the neighborhood structure — which
// pairs never talk — is visible at a glance.
func printPeerMatrix(rows []telemetry.PeerXchg) {
	p := len(rows)
	fmt.Println("\nper-peer exchange matrix (messages sent; '.' = never):")
	fmt.Printf("  %6s", "src\\dst")
	for d := 0; d < p; d++ {
		fmt.Printf("  %8d", d)
	}
	fmt.Printf("  %12s\n", "bytes sent")
	for _, row := range rows {
		fmt.Printf("  %6d", row.Rank)
		var bytes int64
		for d := 0; d < p; d++ {
			var msgs int64
			if d < len(row.Msgs) {
				msgs = row.Msgs[d]
			}
			if d < len(row.Bytes) {
				bytes += row.Bytes[d]
			}
			if msgs == 0 {
				fmt.Printf("  %8s", ".")
			} else {
				fmt.Printf("  %8d", msgs)
			}
		}
		fmt.Printf("  %12d\n", bytes)
	}
}

// sampleRows picks at most n step stats evenly spaced across the run,
// always including the first and last.
func sampleRows(ss []telemetry.StepStat, n int) []telemetry.StepStat {
	if n <= 0 || len(ss) <= n {
		return ss
	}
	out := make([]telemetry.StepStat, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ss[i*(len(ss)-1)/(n-1)])
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "picstat:", err)
	os.Exit(1)
}
