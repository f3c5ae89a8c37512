// Package server is the HTTP front end over a catalog of documents: the
// network layer of the query server. It exposes
//
//	GET    /docs                 list documents
//	PUT    /docs/{name}          load (or reload) a document; body = XML
//	DELETE /docs/{name}          drop a document
//	POST   /docs/{name}/update   apply the body as one update statement
//	POST   /query?doc=NAME       evaluate the body as an XQ query
//	POST   /explain?doc=NAME     render the compilation pipeline
//	GET    /sessions             list sessions with in-flight queries
//	POST   /sessions/{id}/cancel cancel a session's in-flight queries
//	GET    /stats                plan-cache and document statistics
//
// Queries accept per-request knobs as URL parameters (mode, timeout,
// membudget, sortbudget — mapping one-to-one onto core.Config) and a
// session id; canceling the session aborts its in-flight queries and
// nothing else, which the per-query engine handles make safe. Responses are JSON by default; format=xml returns the bare
// result document.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"xqdb/internal/catalog"
	"xqdb/internal/core"
	"xqdb/internal/exec"
	"xqdb/internal/limit"
	"xqdb/internal/plancache"
	"xqdb/internal/store"
	"xqdb/internal/xq"
)

// Config tunes the server and supplies per-query defaults.
type Config struct {
	Catalog *catalog.Catalog
	// Cache is reported by /stats; it should be the catalog's plan cache.
	Cache *plancache.Cache
	// Defaults for the per-request query knobs (see parseQueryConfig).
	Defaults core.Config
	// MaxBodyBytes bounds request bodies (queries and document loads);
	// 0 means 64 MiB.
	MaxBodyBytes int64
}

const defaultMaxBody = 64 << 20

// Server routes HTTP requests onto a catalog. Create with New, serve via
// Handler, and Close on shutdown to abort in-flight queries.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu       sync.Mutex
	sessions map[string]map[*core.Handle]struct{}
	closed   bool
}

// New returns a server over cfg.Catalog.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBody
	}
	s := &Server{cfg: cfg, sessions: make(map[string]map[*core.Handle]struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /docs", s.handleListDocs)
	mux.HandleFunc("PUT /docs/{name}", s.handleLoadDoc)
	mux.HandleFunc("DELETE /docs/{name}", s.handleDropDoc)
	mux.HandleFunc("POST /docs/{name}/update", s.handleUpdateDoc)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /explain", s.handleExplain)
	mux.HandleFunc("GET /sessions", s.handleListSessions)
	mux.HandleFunc("POST /sessions/{id}/cancel", s.handleCancelSession)
	mux.HandleFunc("GET /stats", s.handleStats)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close aborts every in-flight query. New queries are rejected afterward.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	var handles []*core.Handle
	for _, hs := range s.sessions {
		for h := range hs {
			handles = append(handles, h)
		}
	}
	s.mu.Unlock()
	for _, h := range handles {
		h.Cancel()
	}
}

// register tracks an in-flight handle under a session id. It fails once
// the server is closing so shutdown cannot race new queries.
func (s *Server) register(session string, h *core.Handle) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("server shutting down")
	}
	hs := s.sessions[session]
	if hs == nil {
		hs = make(map[*core.Handle]struct{})
		s.sessions[session] = hs
	}
	hs[h] = struct{}{}
	return nil
}

func (s *Server) unregister(session string, h *core.Handle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hs := s.sessions[session]; hs != nil {
		delete(hs, h)
		if len(hs) == 0 {
			delete(s.sessions, session)
		}
	}
}

type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func fail(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var ae *apiError
	var pe *xq.ParseError
	switch {
	case errors.As(err, &ae):
		status = ae.status
	case errors.As(err, &pe):
		status = http.StatusBadRequest
	case errors.Is(err, limit.ErrCanceled):
		status = http.StatusConflict
	case errors.Is(err, limit.ErrTimeout):
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false) // responses carry XML; keep it readable
	enc.Encode(v)
}

func (s *Server) handleListDocs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"docs": s.cfg.Catalog.List()})
}

func (s *Server) handleLoadDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	epoch, err := s.cfg.Catalog.Load(name, body)
	if err != nil {
		fail(w, &apiError{http.StatusBadRequest, err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "epoch": epoch})
}

func (s *Server) handleDropDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.cfg.Catalog.Drop(name); err != nil {
		fail(w, &apiError{http.StatusNotFound, err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
}

// UpdateResponse is the JSON body of a /docs/{name}/update result.
type UpdateResponse struct {
	Doc     string  `json:"doc"`
	Epoch   uint64  `json:"epoch"`
	Targets int     `json:"targets"`
	Applied int     `json:"applied"`
	Seq     uint64  `json:"seq"`
	Elapsed float64 `json:"elapsedMs"`
}

// handleUpdateDoc applies the body as one update statement, atomically
// and durably. Statement parse errors are 400, an unknown document 404, a
// busy store 409 (updates on one document serialize in the catalog, so
// this needs a concurrent non-catalog writer), anything else 500.
func (s *Server) handleUpdateDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	src, err := s.readQuery(w, r)
	if err != nil {
		fail(w, err)
		return
	}
	start := time.Now()
	res, err := s.cfg.Catalog.Update(name, src)
	if err != nil {
		switch {
		case errors.Is(err, catalog.ErrNotFound):
			err = &apiError{http.StatusNotFound, err.Error()}
		case errors.Is(err, store.ErrBusy):
			err = &apiError{http.StatusConflict, err.Error()}
		}
		fail(w, err)
		return
	}
	resp := UpdateResponse{
		Doc:     name,
		Targets: res.Targets,
		Applied: res.Applied,
		Seq:     res.Seq,
		Elapsed: float64(time.Since(start).Microseconds()) / 1000,
	}
	if d, err := s.cfg.Catalog.Acquire(name); err == nil {
		resp.Epoch = d.Epoch()
		d.Release()
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseQueryConfig maps the request's URL parameters onto core.Config,
// starting from the server defaults.
func (s *Server) parseQueryConfig(r *http.Request) (core.Config, error) {
	cfg := s.cfg.Defaults
	q := r.URL.Query()
	if v := q.Get("mode"); v != "" {
		mode, err := ParseMode(v)
		if err != nil {
			return cfg, &apiError{http.StatusBadRequest, err.Error()}
		}
		cfg.Mode = mode
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return cfg, &apiError{http.StatusBadRequest, fmt.Sprintf("bad timeout %q", v)}
		}
		cfg.Timeout = d
	}
	for _, p := range []struct {
		key string
		dst *int
	}{
		{"membudget", &cfg.MemBudget},
		{"sortbudget", &cfg.SortBudget},
	} {
		if v := q.Get(p.key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return cfg, &apiError{http.StatusBadRequest, fmt.Sprintf("bad %s %q", p.key, v)}
			}
			*p.dst = n
		}
	}
	return cfg, nil
}

// ParseMode maps the CLI/HTTP engine names onto core modes.
func ParseMode(s string) (core.Mode, error) {
	switch s {
	case "m1":
		return core.ModeM1, nil
	case "m2":
		return core.ModeM2, nil
	case "tpm":
		return core.ModeNaiveTPM, nil
	case "m3":
		return core.ModeM3, nil
	case "m4", "":
		return core.ModeM4, nil
	case "badstats":
		return core.ModeM4BadStats, nil
	}
	return 0, fmt.Errorf("unknown mode %q (m1|m2|tpm|m3|m4|badstats)", s)
}

func (s *Server) readQuery(w http.ResponseWriter, r *http.Request) (string, error) {
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return "", &apiError{http.StatusBadRequest, err.Error()}
	}
	if len(src) == 0 {
		return "", &apiError{http.StatusBadRequest, "empty query body"}
	}
	return string(src), nil
}

// QueryResponse is the JSON body of a /query result.
type QueryResponse struct {
	Doc      string        `json:"doc"`
	Epoch    uint64        `json:"epoch"`
	XML      string        `json:"xml"`
	CacheHit bool          `json:"cacheHit"`
	Elapsed  float64       `json:"elapsedMs"`
	Counters exec.Counters `json:"counters"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	src, err := s.readQuery(w, r)
	if err != nil {
		fail(w, err)
		return
	}
	cfg, err := s.parseQueryConfig(r)
	if err != nil {
		fail(w, err)
		return
	}
	doc, err := s.cfg.Catalog.Acquire(r.URL.Query().Get("doc"))
	if err != nil {
		fail(w, &apiError{http.StatusNotFound, err.Error()})
		return
	}
	defer doc.Release()

	h := doc.Engine(cfg).NewHandle()
	session := r.URL.Query().Get("session")
	if session == "" {
		session = r.RemoteAddr // per-connection default
	}
	if err := s.register(session, h); err != nil {
		fail(w, &apiError{http.StatusServiceUnavailable, err.Error()})
		return
	}
	defer s.unregister(session, h)

	start := time.Now()
	res, err := h.Query(src)
	if err != nil {
		fail(w, err)
		return
	}
	if r.URL.Query().Get("format") == "xml" {
		w.Header().Set("Content-Type", "application/xml")
		if res.CacheHit {
			w.Header().Set("X-Plan-Cache", "hit")
		} else {
			w.Header().Set("X-Plan-Cache", "miss")
		}
		io.WriteString(w, res.XML)
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Doc:      doc.Name(),
		Epoch:    doc.Epoch(),
		XML:      res.XML,
		CacheHit: res.CacheHit,
		Elapsed:  float64(time.Since(start).Microseconds()) / 1000,
		Counters: res.Counters,
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	src, err := s.readQuery(w, r)
	if err != nil {
		fail(w, err)
		return
	}
	cfg, err := s.parseQueryConfig(r)
	if err != nil {
		fail(w, err)
		return
	}
	doc, err := s.cfg.Catalog.Acquire(r.URL.Query().Get("doc"))
	if err != nil {
		fail(w, &apiError{http.StatusNotFound, err.Error()})
		return
	}
	defer doc.Release()
	var out string
	if r.URL.Query().Get("analyze") == "true" {
		out, err = doc.Engine(cfg).ExplainAnalyze(src)
	} else {
		out, err = doc.Engine(cfg).Explain(src)
	}
	if err != nil {
		fail(w, &apiError{http.StatusBadRequest, err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, out)
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	type sess struct {
		ID       string `json:"id"`
		Inflight int    `json:"inflight"`
	}
	out := make([]sess, 0, len(s.sessions))
	for id, hs := range s.sessions {
		out = append(out, sess{ID: id, Inflight: len(hs)})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (s *Server) handleCancelSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	handles := make([]*core.Handle, 0, len(s.sessions[id]))
	for h := range s.sessions[id] {
		handles = append(handles, h)
	}
	s.mu.Unlock()
	for _, h := range handles {
		h.Cancel()
	}
	writeJSON(w, http.StatusOK, map[string]any{"session": id, "canceled": len(handles)})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Cache.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"planCache": map[string]any{
			"entries":       s.cfg.Cache.Len(),
			"hits":          st.Hits,
			"misses":        st.Misses,
			"puts":          st.Puts,
			"evictions":     st.Evictions,
			"invalidations": st.Invalidations,
			"hitRate":       st.HitRate(),
		},
		"docs": s.cfg.Catalog.List(),
	})
}
