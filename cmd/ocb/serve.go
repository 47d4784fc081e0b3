package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ocb/internal/backend"
	"ocb/internal/wire"
)

// serve implements `ocb serve`: host any registered backend on a TCP
// address, speaking the wire protocol, so a separate `ocb` process (or
// fleet of them) can benchmark it through `-backend remote`. SIGTERM or
// SIGINT drains gracefully: in-flight requests get their responses, then
// connections close and the hosted store shuts down.
func serve(args []string) error {
	fs := flag.NewFlagSet("ocb serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8663", "TCP address to listen on")
	backendName := fs.String("backend", backend.DefaultName,
		fmt.Sprintf("hosted backend: %s", strings.Join(backend.ListLocal(), " | ")))
	var backendOpts backend.OptionFlags
	fs.Var(&backendOpts, "backend-opt",
		"backend-specific option key=value (repeatable), passed through to the hosted driver")
	pagesize := fs.Int("pagesize", 0, "page size hint for paged backends (0 = driver default)")
	bufferPages := fs.Int("buffer", 0, "buffer pool frames for paged backends (0 = driver default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	name := *backendName
	if name == "" {
		name = backend.DefaultName
	}
	if backend.InfoOf(name).Remote {
		return fmt.Errorf("backend %q is itself a network client; host one of: %s",
			name, strings.Join(backend.ListLocal(), ", "))
	}
	opts, err := backend.ParseOptions(backendOpts)
	if err != nil {
		return err
	}
	b, err := backend.Open(name, backend.Config{
		PageSize:    *pagesize,
		BufferPages: *bufferPages,
		Options:     opts,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = backend.Shutdown(b)
		return err
	}
	srv := wire.NewServer(b, name, log.New(os.Stderr, "", log.LstdFlags))
	fmt.Printf("ocb serve: hosting backend %q on %s (protocol v%d)\n", name, ln.Addr(), wire.Version)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Printf("ocb serve: %s, draining\n", s)
		srv.Shutdown()
		<-done
		err = nil
	case err = <-done:
		srv.Shutdown()
	}
	if cerr := backend.Shutdown(b); err == nil {
		err = cerr
	}
	return err
}
