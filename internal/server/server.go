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
// nothing else, which the per-query engine handles make safe.
//
// Responses are JSON by default; format=xml returns the bare result
// document. The /query JSON envelope (QueryResponse) has a stable layout:
// its fields in declaration order, indented by two spaces, with a
// trailing newline, byte for byte what encoding/json writes, though the
// answer is escaped straight into the response (writeQueryResponse).
// Either format is written after Handle.Query has returned, so after the
// store's read lock is released: a slow client never holds up a writer.
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
	"unicode/utf8"

	"xqdb/internal/catalog"
	"xqdb/internal/core"
	"xqdb/internal/exec"
	"xqdb/internal/limit"
	"xqdb/internal/opt"
	"xqdb/internal/plancache"
	"xqdb/internal/store"
	"xqdb/internal/xmltok"
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
	case errors.As(err, &pe), errors.Is(err, opt.ErrTooManyRelations), errors.Is(err, core.ErrNoPlan):
		status = http.StatusBadRequest
	case errors.Is(err, limit.ErrCanceled):
		status = http.StatusConflict
	case errors.Is(err, limit.ErrTimeout):
		status = http.StatusGatewayTimeout
	case errors.Is(err, store.ErrValueTooLarge):
		status = http.StatusRequestEntityTooLarge
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
		fail(w, loadError(err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "epoch": epoch})
}

// loadError maps a failed load onto its cause: a malformed document or a
// bad name is the client's 400, a body over MaxBodyBytes a 413; fail maps
// a value too long for a page to 413 and anything else, an I/O fault
// above all, to 500.
func loadError(err error) error {
	var se *xmltok.SyntaxError
	var me *http.MaxBytesError
	switch {
	case errors.As(err, &se), errors.Is(err, catalog.ErrBadName):
		return &apiError{http.StatusBadRequest, err.Error()}
	case errors.As(err, &me):
		return &apiError{http.StatusRequestEntityTooLarge, err.Error()}
	}
	return err
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
// this needs a concurrent non-catalog writer), a value too long for a
// page 413, anything else 500.
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
// starting from the server defaults. The timeout and the memory budget
// are caps: a request may lower them, never lift them (see capped).
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
		cfg.Timeout = capped(cfg.Timeout, d)
	}
	for _, p := range []struct {
		key   string
		dst   *int
		isCap bool
	}{
		{"membudget", &cfg.MemBudget, true},
		{"sortbudget", &cfg.SortBudget, false},
	} {
		if v := q.Get(p.key); v != "" {
			// A negative budget would read as "unlimited" downstream and
			// lift the server's cap.
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return cfg, &apiError{http.StatusBadRequest, fmt.Sprintf("bad %s %q", p.key, v)}
			}
			if p.isCap {
				n = capped(*p.dst, n)
			}
			*p.dst = n
		}
	}
	return cfg, nil
}

// capped returns the value a request gets for a server cap whose default
// is def: the smaller of the two when the server sets a cap (def > 0),
// and def when the request asks for 0 ("unlimited").
func capped[T int | time.Duration](def, req T) T {
	if req == 0 || (def > 0 && def < req) {
		return def
	}
	return req
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

// QueryResponse is the JSON body of a /query result. handleQuery writes
// it with writeQueryResponse, in exactly the bytes writeJSON would.
type QueryResponse struct {
	Doc      string        `json:"doc"`
	Epoch    uint64        `json:"epoch"`
	XML      string        `json:"xml"`
	CacheHit bool          `json:"cacheHit"`
	Elapsed  float64       `json:"elapsedMs"`
	Counters exec.Counters `json:"counters"`
}

// scratchSize bounds the buffer writeQueryResponse escapes the answer
// through: a large answer goes out in chunks of about this size.
const scratchSize = 64 << 10

// writeQueryResponse writes resp as writeJSON(w, 200, resp) would, byte
// for byte, but escapes the answer straight from resp.XML into w through
// one scratch buffer of at most scratchSize bytes: the answer passes
// through neither json.Encoder nor an indent pass.
func writeQueryResponse(w http.ResponseWriter, resp *QueryResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	buf := make([]byte, 0, min(len(resp.Doc)+len(resp.XML)+1024, scratchSize))
	buf = append(buf, "{\n  \"doc\": "...)
	buf = appendJSONString(buf, resp.Doc)
	buf = append(buf, ",\n  \"epoch\": "...)
	buf = strconv.AppendUint(buf, resp.Epoch, 10)
	buf = append(buf, ",\n  \"xml\": \""...)
	buf, err := writeJSONChars(w, buf, resp.XML)
	if err != nil {
		return // the client is gone
	}
	// The rest is a few hundred bytes; json.Marshal formats the float and
	// the counters exactly as the encoder would.
	elapsed, _ := json.Marshal(resp.Elapsed)
	counters, _ := json.MarshalIndent(resp.Counters, "  ", "  ")
	if cap(buf)-len(buf) < len(elapsed)+len(counters)+64 {
		if _, err := w.Write(buf); err != nil {
			return
		}
		buf = buf[:0]
	}
	buf = append(buf, "\",\n  \"cacheHit\": "...)
	buf = strconv.AppendBool(buf, resp.CacheHit)
	buf = append(buf, ",\n  \"elapsedMs\": "...)
	buf = append(buf, elapsed...)
	buf = append(buf, ",\n  \"counters\": "...)
	buf = append(buf, counters...)
	buf = append(buf, "\n}\n"...)
	w.Write(buf)
}

// maxEscape is the most bytes appendJSONChars writes for one input byte
// (a control byte becomes \u00XX).
const maxEscape = 6

// writeJSONChars escapes s as the body of a JSON string into buf, writing
// buf to w whenever it fills, and returns buf holding what is not yet
// written. cap(buf) must be at least maxEscape*utf8.UTFMax.
func writeJSONChars(w io.Writer, buf []byte, s string) ([]byte, error) {
	for len(s) > 0 {
		n := (cap(buf) - len(buf)) / maxEscape
		if n < utf8.UTFMax {
			if _, err := w.Write(buf); err != nil {
				return buf, err
			}
			buf = buf[:0]
			continue
		}
		if n < len(s) {
			// Cut at a rune start, so no rune is split across two chunks.
			// If none of the last UTFMax bytes starts a rune, no valid
			// rune spans the cut either.
			for i := n; i > n-utf8.UTFMax; i-- {
				if utf8.RuneStart(s[i]) {
					n = i
					break
				}
			}
		} else {
			n = len(s)
		}
		buf = appendJSONChars(buf, s[:n])
		s = s[n:]
	}
	return buf, nil
}

// appendJSONString appends s to dst as a JSON string, exactly as
// encoding/json does with SetEscapeHTML(false).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendJSONChars(dst, s)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the bytes appendJSONChars copies as they are: printable
// ASCII other than '"' and '\\'.
var jsonSafe = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// appendJSONChars is appendJSONString without the quotes: '"' and '\\'
// are backslash-escaped, control bytes get their short escape or \u00XX,
// each byte of invalid UTF-8 becomes \ufffd, and U+2028 and U+2029 are
// escaped; every other run of bytes is copied with one append.
func appendJSONChars(dst []byte, s string) []byte {
	run := 0
	for i := 0; i < len(s); {
		b := s[i]
		if jsonSafe[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[run:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			run = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[run:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[run:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		run = i
	}
	return append(dst, s[run:]...)
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
	writeQueryResponse(w, &QueryResponse{
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
		fail(w, err)
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
