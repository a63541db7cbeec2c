// Command certd is certification-as-a-service: the networked front end
// of the certification farm (internal/certd).
//
// Usage:
//
//	certd serve [-addr :9240] [-stream-addr :9241] [-lease-ttl 3s] [-max-streams N]
//	certd work -connect http://host:9240 [-name NAME] [-poll 100ms]
//	certd submit -connect http://host:9240 (-spec file.json|-) [-wait]
//
// serve runs the coordinator: the HTTP job/lease surface on -addr
// (/healthz and /statsz included) and the line-oriented monitor-stream
// listener on -stream-addr. SIGINT/SIGTERM drains gracefully: no new
// work is accepted, outstanding shards degrade into explicit artifacts
// so every submitted job completes, and open streams are torn down.
//
// work runs a pull worker against a coordinator: it leases grants — the
// coordinator sizes them, many short shards or one long one — heartbeats
// while computing, sends the outcomes with its next lease request, and
// survives shard panics (the coordinator requeues). An idle worker's poll
// is held by the coordinator for up to -poll and answered the moment work
// arrives. On SIGINT/SIGTERM it delivers what it finished and hands the
// rest of its grant back; kill it freely otherwise, the lease protocol
// absorbs the loss.
//
// submit reads a checkfarm.JobSpec as JSON (from -spec, or stdin with
// "-"), submits it, and with -wait asks for the status with requests the
// coordinator holds (up to -poll each) until the fold lands, then prints
// the report — byte-identical to the in-process farm's output for the
// same spec. Exit status with -wait: 0 on a clean report, 1 when shards
// degraded, 2 on errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"duopacity/internal/certd"
	"duopacity/internal/checkfarm"
)

func main() {
	code, err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "certd:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, stdin io.Reader, stdout io.Writer) (int, error) {
	if len(args) < 1 {
		return 2, fmt.Errorf("usage: certd <serve|work|submit> [flags]")
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:], stdout, nil)
	case "work":
		return runWork(args[1:], stdout)
	case "submit":
		return runSubmit(args[1:], stdin, stdout)
	default:
		return 2, fmt.Errorf("unknown subcommand %q (want serve, work or submit)", args[0])
	}
}

// runServe starts the coordinator and blocks until a signal (or, in
// tests, the ready channel's consumer shuts it down via the returned
// listeners). ready, when non-nil, receives the bound addresses.
func runServe(args []string, stdout io.Writer, ready chan<- [2]string) (int, error) {
	fs := flag.NewFlagSet("certd serve", flag.ContinueOnError)
	addr := fs.String("addr", ":9240", "HTTP job/lease/ops address")
	streamAddr := fs.String("stream-addr", ":9241", "monitor-stream listener address")
	leaseTTL := fs.Duration("lease-ttl", 3*time.Second, "lease TTL of a grant (heartbeats extend)")
	maxStreams := fs.Int("max-streams", 256, "concurrent monitor-stream cap (past it: ERR busy)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	s := certd.NewServer(certd.Config{LeaseTTL: *leaseTTL, MaxStreams: *maxStreams})

	httpLn, err := net.Listen("tcp", *addr)
	if err != nil {
		return 2, err
	}
	streamLn, err := net.Listen("tcp", *streamAddr)
	if err != nil {
		httpLn.Close()
		return 2, err
	}
	fmt.Fprintf(stdout, "certd: jobs on %s, streams on %s\n", httpLn.Addr(), streamLn.Addr())
	if ready != nil {
		ready <- [2]string{httpLn.Addr().String(), streamLn.Addr().String()}
	}

	janCtx, stopJanitor := context.WithCancel(context.Background())
	defer stopJanitor()
	go s.ExpireLoop(janCtx)
	go func() { _ = s.ServeStreams(streamLn) }()
	hs := &http.Server{Handler: s.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(httpLn) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(stdout, "certd: %v — draining\n", got)
	case err := <-httpDone:
		return 2, fmt.Errorf("http server: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := s.Drain(ctx)
	_ = hs.Shutdown(ctx)
	if drainErr != nil {
		return 2, fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Fprintln(stdout, "certd: drained")
	return 0, nil
}

func runWork(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("certd work", flag.ContinueOnError)
	connect := fs.String("connect", "", "coordinator URL (http://host:port)")
	name := fs.String("name", "", "worker name (default host.pid)")
	poll := fs.Duration("poll", 100*time.Millisecond, "how long the coordinator may hold an idle lease poll")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *connect == "" {
		return 2, fmt.Errorf("work: -connect is required")
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s.%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "certd: worker %s pulling from %s\n", *name, *connect)
	w := &certd.Worker{Client: &certd.Client{Base: *connect}, Name: *name, Poll: *poll}
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		return 2, err
	}
	return 0, nil
}

func runSubmit(args []string, stdin io.Reader, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("certd submit", flag.ContinueOnError)
	connect := fs.String("connect", "", "coordinator URL (http://host:port)")
	specPath := fs.String("spec", "", `job spec JSON file ("-" for stdin)`)
	wait := fs.Bool("wait", true, "wait until the job folds and print the report")
	poll := fs.Duration("poll", 250*time.Millisecond, "how long the coordinator may hold a status request with -wait")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *connect == "" || *specPath == "" {
		return 2, fmt.Errorf("submit: -connect and -spec are required")
	}
	var src io.Reader = stdin
	if *specPath != "-" {
		f, err := os.Open(*specPath)
		if err != nil {
			return 2, err
		}
		defer f.Close()
		src = f
	}
	var spec checkfarm.JobSpec
	if err := json.NewDecoder(src).Decode(&spec); err != nil {
		return 2, fmt.Errorf("submit: bad spec: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := &certd.Client{Base: *connect}
	id, shards, err := c.Submit(ctx, spec)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "submitted %s (%d shard(s))\n", id, shards)
	if !*wait {
		return 0, nil
	}
	st, err := c.WaitJob(ctx, id, *poll)
	if err != nil {
		return 2, err
	}
	if st.State != certd.JobDone {
		return 2, fmt.Errorf("job %s %s: %s", id, st.State, st.Err)
	}
	fmt.Fprint(stdout, st.Formatted)
	if st.Degraded > 0 {
		return 1, nil
	}
	return 0, nil
}
