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
//	vgen-serve -backend list
//
// -backend, -seed, -corpus-files and -replay are core's backend selection
// (core.BindBackendFlags), resolved by the rules vgen-eval and vgen-coord
// apply: -replay implies -backend replay, a -replay next to another
// -backend, an unknown -backend and -backend remote (a proxy of a proxy)
// are usage errors (exit 2).
//
// -addr defaults to an ephemeral loopback port; -url-file writes the
// bound URL (durably, via the atomic write path) once the listener is
// up, which is how scripts learn the port without racing the log line.
// -auth-env names an environment variable holding a bearer token that
// every client must present — the token itself never appears in argv. An
// empty or unset variable is a usage error (exit 2), as it is for
// vgen-eval's -auth-env.
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
	shared := core.BindBackendFlags(flag.CommandLine)
	addr := flag.String("addr", "127.0.0.1:0", "listen address; port 0 picks an ephemeral port")
	authEnv := flag.String("auth-env", "", "environment variable holding the bearer token clients must present")
	urlFile := flag.String("url-file", "", "write the bound URL to this file once listening")
	flag.Parse()

	cfg, err := shared.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if cfg.Backend == "list" {
		core.ListBackends(os.Stdout)
		return
	}

	var token string
	if *authEnv != "" {
		token = os.Getenv(*authEnv)
		if token == "" {
			fmt.Fprintf(os.Stderr, "vgen-serve: -auth-env: environment variable %s is empty or unset\n", *authEnv)
			os.Exit(2)
		}
	}

	fw, err := core.New(cfg)
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
	fmt.Fprintf(os.Stderr, "vgen-serve: serving %s (%s) at %s\n", cfg.Backend, b.Describe(), url)

	<-ctx.Done()
	if err := srv.Close(); err != nil {
		fail("shutdown: %v", err)
	}
}
