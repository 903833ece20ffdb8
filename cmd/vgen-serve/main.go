// Command vgen-serve exposes any generation backend of core's backend
// table but remote over the wire protocol (internal/remote), so a
// `vgen-eval -backend remote` on another machine — or the same one —
// draws its samples from this process. Samples are pure functions of their coordinates, so a remote
// sweep against vgen-serve reproduces the in-process run byte for byte
// (`make serve-check` proves it end to end).
//
// Usage:
//
//	vgen-serve [-backend family] [-seed N] [-corpus-files N] [-replay FILE]
//	           [-addr 127.0.0.1:0] [-auth-env NAME] [-url-file PATH]
//
// -addr defaults to an ephemeral loopback port; -url-file writes the
// bound URL (durably, via the atomic write path) once the listener is
// up, which is how scripts learn the port without racing the log line.
// -auth-env names an environment variable holding a bearer token that
// every client must present — the token itself never appears in argv.
// The server runs until SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/remote"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vgen-serve: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	backend := flag.String("backend", "family", "generation backend to serve, by name in the backend table ('list' prints the table)")
	seed := flag.Int64("seed", 1, "determinism seed for corpus, models and sampling")
	corpusFiles := flag.Int("corpus-files", 0, "synthetic corpus size (0 = default)")
	replay := flag.String("replay", "", "JSONL recording served by the replay backend (implies -backend replay)")
	addr := flag.String("addr", "127.0.0.1:0", "listen address; port 0 picks an ephemeral port")
	authEnv := flag.String("auth-env", "", "environment variable holding the bearer token clients must present")
	urlFile := flag.String("url-file", "", "write the bound URL to this file once listening")
	flag.Parse()

	if *backend == "list" {
		core.ListBackends(os.Stdout)
		return
	}
	if *replay != "" && *backend == "family" {
		*backend = "replay"
	}
	if *backend == "remote" {
		// Proxying a proxy only adds a hop of failure modes.
		fail("-backend remote would chain the proxy onto itself; serve the real backend instead")
	}

	var token string
	if *authEnv != "" {
		token = os.Getenv(*authEnv)
		if token == "" {
			fail("auth: environment variable %s is empty or unset", *authEnv)
		}
	}

	fw, err := core.New(core.Config{Seed: *seed, CorpusFiles: *corpusFiles, Backend: *backend, Replay: *replay})
	if err != nil {
		fail("%v", err)
	}
	b := fw.Backend

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := remote.NewServer(remote.NewHandler(b, remote.ServerOptions{AuthToken: token}))
	url, err := srv.Start(ctx, *addr)
	if err != nil {
		fail("listen: %v", err)
	}
	if *urlFile != "" {
		err := core.WriteFileAtomic(*urlFile, func(f *os.File) error {
			_, err := fmt.Fprintln(f, url)
			return err
		})
		if err != nil {
			srv.Close()
			fail("url-file: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "vgen-serve: serving %s (%s) at %s\n", *backend, b.Describe(), url)

	<-ctx.Done()
	if err := srv.Close(); err != nil {
		fail("shutdown: %v", err)
	}
}
