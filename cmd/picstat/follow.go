package main

// Live mode: picstat -follow host:port tails the /events Server-Sent Events
// stream a `picrun -http` process serves, printing one line per sample as
// the run produces it. The stream outlives world generations, so an epoch
// recovery shows as steps that repeat, not as a dropped connection. A
// connection that does drop does not end the session: the follower
// reconnects with capped exponential backoff for up to -retry. The session
// ends when the server closes the stream cleanly (the run finished), on
// ctrl-C, or when no reconnect succeeds within the retry window.

import (
	"bufio"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/parres/picprk/internal/telemetry"
)

// maxReconnectDelay caps the backoff between reconnect attempts.
const maxReconnectDelay = 15 * time.Second

// follower holds the display state that must survive reconnects: the header
// is printed once, the wall-clock base anchors all samples of the session,
// and the sample count spans connections.
type follower struct {
	url      string
	header   bool
	wallBase int64
	total    int
}

// followEvents tails addr's /events endpoint, reconnecting on dropped
// connections for up to retry per outage (0 = give up on the first drop,
// the pre-recovery behavior).
func followEvents(addr string, retry time.Duration) error {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	f := &follower{url: strings.TrimRight(url, "/") + "/events"}
	fmt.Printf("following %s (stream ends when the run does)\n", f.url)

	delay := time.Second
	var deadline time.Time // end of the current outage's retry window
	for {
		n, err := f.streamOnce()
		if err == nil {
			fmt.Printf("stream closed after %d sample(s)\n", f.total)
			return nil
		}
		if retry <= 0 {
			if n > 0 || f.total > 0 {
				// A severed mid-run stream without -retry keeps the old
				// behavior: the samples printed so far are still good.
				fmt.Printf("stream severed after %d sample(s) (%v)\n", f.total, err)
				return nil
			}
			return err
		}
		if n > 0 || deadline.IsZero() {
			// Fresh outage (or the first attempt): open a new retry window
			// and restart the backoff.
			deadline = time.Now().Add(retry)
			delay = time.Second
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no stream for %v; giving up after %d sample(s) (last error: %w)", retry, f.total, err)
		}
		fmt.Printf("picstat: stream lost (%v); retrying in %v\n", err, delay)
		time.Sleep(delay)
		if delay *= 2; delay > maxReconnectDelay {
			delay = maxReconnectDelay
		}
	}
}

// streamOnce connects once and prints samples until the stream ends. It
// returns the number of samples this connection delivered, and nil only on
// a clean server-side close (the run completed).
func (f *follower) streamOnce() (int, error) {
	resp, err := http.Get(f.url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: %s", f.url, resp.Status)
	}
	if !f.header {
		fmt.Printf("%6s  %4s  %10s  %10s  %10s  %9s  %s\n",
			"step", "rank", telemetry.Compute, telemetry.Exchange, "wall start", "particles", "decision")
		f.header = true
	}

	// SSE framing: `data: <json>` lines separated by blank lines; comment
	// lines start with ':'. One sample per data line.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	n := 0
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		s, err := telemetry.UnmarshalSample([]byte(data))
		if err != nil {
			return n, fmt.Errorf("bad event payload: %w", err)
		}
		wall := "-"
		if s.WallStartNS != 0 {
			if f.wallBase == 0 {
				f.wallBase = s.WallStartNS
			}
			wall = telemetry.FmtNS(s.WallStartNS - f.wallBase)
		}
		fmt.Printf("%6d  %4d  %10v  %10v  %10s  %9d  %s\n",
			s.Step, s.Rank,
			time.Duration(s.Counters[telemetry.Compute]).Round(time.Microsecond),
			time.Duration(s.Counters[telemetry.Exchange]).Round(time.Microsecond),
			wall, s.Counters[telemetry.Particles], s.Decision)
		n++
		f.total++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("stream: %w", err)
	}
	return n, nil
}
