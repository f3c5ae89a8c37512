// Command xqserver serves a catalog of XML documents over HTTP: load
// named documents, query them with XQ, explain plans, and cancel
// in-flight sessions. Compiled plans are cached across requests and
// invalidated when a document is reloaded.
//
//	xqserver -store /data/xq -load dblp=dblp.xml -load site=site.xml
//	curl -X POST 'localhost:8080/query?doc=dblp' -d 'for $x in //title return $x'
//
// See the README "Query server" section for the endpoint reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xqdb/internal/catalog"
	"xqdb/internal/core"
	"xqdb/internal/plancache"
	"xqdb/internal/server"
)

// Header limits: a client has readHeaderTimeout to send its request
// headers, and headers larger than maxHeaderBytes are refused, so slow or
// oversized headers cannot hold a connection. Request bodies are bounded
// by the server package (server.Config.MaxBodyBytes).
const (
	readHeaderTimeout = 10 * time.Second
	maxHeaderBytes    = 64 << 10
)

// loadFlags collects repeatable -load name=path arguments.
type loadFlags []struct{ name, path string }

func (l *loadFlags) String() string { return fmt.Sprintf("%d documents", len(*l)) }

func (l *loadFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*l = append(*l, struct{ name, path string }{name, path})
	return nil
}

func main() {
	var (
		addr       = flag.String("addr", "localhost:8080", "listen address")
		storeDir   = flag.String("store", "", "catalog root directory (required)")
		cacheSize  = flag.Int("cache", plancache.DefaultEntries, "plan cache entries (0 disables)")
		mode       = flag.String("mode", "m4", "default engine mode: m1|m2|tpm|m3|m4|badstats")
		timeout    = flag.Duration("timeout", 0, "per-query timeout cap; ?timeout= may lower it, never lift it (0 = unlimited)")
		memBudget  = flag.Int("membudget", 0, "per-query memory budget cap in bytes; ?membudget= may lower it, never lift it (0 = unlimited)")
		sortBudget = flag.Int("sortbudget", 1<<20, "default operator sort/spool budget in bytes")
		loads      loadFlags
	)
	flag.Var(&loads, "load", "load a document at startup: name=path (repeatable)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("xqserver: ")

	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "xqserver: -store is required")
		flag.Usage()
		os.Exit(2)
	}
	defMode, err := server.ParseMode(*mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xqserver: %v\n", err)
		os.Exit(2)
	}

	var cache *plancache.Cache
	if *cacheSize > 0 {
		cache = plancache.New(*cacheSize)
	}
	cat, err := catalog.Open(*storeDir, catalog.Options{PlanCache: cache})
	if err != nil {
		log.Fatalf("open catalog: %v", err)
	}
	for _, l := range loads {
		f, err := os.Open(l.path)
		if err != nil {
			log.Fatalf("load %s: %v", l.name, err)
		}
		epoch, err := cat.Load(l.name, f)
		f.Close()
		if err != nil {
			log.Fatalf("load %s: %v", l.name, err)
		}
		log.Printf("loaded %s (epoch %d) from %s", l.name, epoch, l.path)
	}

	srv := server.New(server.Config{
		Catalog: cat,
		Cache:   cache,
		Defaults: core.Config{
			Mode:       defMode,
			Timeout:    *timeout,
			MemBudget:  *memBudget,
			SortBudget: *sortBudget,
		},
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving on http://%s (docs: %d, cache: %d entries)", *addr, len(cat.List()), *cacheSize)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: abort in-flight queries so their handlers return,
	// drain the listener, then retire the catalog.
	log.Print("shutting down")
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
	if err := cat.Close(); err != nil {
		log.Printf("close catalog: %v", err)
	}
}
