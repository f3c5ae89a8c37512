package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clientTimeout is the per-request limit; an operation that exceeds it is
// a failure.
const clientTimeout = 10 * time.Second

// serverProc is one running xqserver with default flags. The driver talks
// to it only through its flags and HTTP endpoints.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	store   string
	started time.Time
	logFile *os.File
	ended   bool
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin on storeDir and returns once it answers.
func startServer(bin, storeDir string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(storeDir + ".log")
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-store", storeDir, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	s := &serverProc{cmd: cmd, base: "http://" + addr, store: storeDir, started: time.Now(), logFile: logFile}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	probe := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(clientTimeout); ; {
		resp, err := probe.Get(s.base + "/docs")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			probe.CloseIdleConnections()
			return s, nil
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("xqserver did not answer on %s: %w", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to end. Killing or stopping
// a server that has already ended does nothing.
func (s *serverProc) kill() {
	if s.ended {
		return
	}
	s.ended = true
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.logFile.Close()
}

// stop asks for a graceful shutdown and waits; it falls back to kill.
func (s *serverProc) stop() {
	if s.ended {
		return
	}
	s.ended = true
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(clientTimeout):
		s.cmd.Process.Kill()
		<-done
	}
	s.logFile.Close()
}

// cpuSeconds returns the user+system CPU time the server has used, read
// from /proc (clock ticks are 1/100 s on Linux).
func (s *serverProc) cpuSeconds() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// rssPeakMB returns the server's peak resident set (VmHWM) in MB.
func (s *serverProc) rssPeakMB() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// storeBytes sums the files of every document version directory.
func (s *serverProc) storeBytes() (int64, error) {
	var n int64
	err := filepath.Walk(filepath.Join(s.store, "docs"), func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// client is one closed-loop caller: one keep-alive connection, one
// session id, one reusable response buffer.
type client struct {
	http    *http.Client
	base    string
	session string
	buf     bytes.Buffer
}

func newClient(base, session string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: clientTimeout}, base: base, session: session}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and reads the whole body into the client's buffer;
// the returned slice is valid until the next call. The latency runs from
// send to last body byte.
func (c *client) do(method, path string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, lat, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), lat, nil
}

// queryPath builds the /query URL; params are extra URL parameters such as
// "mode=m2".
func (c *client) queryPath(doc string, xml bool, params string) string {
	p := "/query?doc=" + doc + "&session=" + c.session
	if xml {
		p += "&format=xml"
	}
	if params != "" {
		p += "&" + params
	}
	return p
}

// updateAck is what the driver reads from an update response.
type updateAck struct {
	Applied int    `json:"applied"`
	Seq     uint64 `json:"seq"`
}

func (c *client) update(doc, stmt string) (updateAck, time.Duration, error) {
	body, lat, err := c.do("POST", "/docs/"+doc+"/update", []byte(stmt))
	if err != nil {
		return updateAck{}, lat, err
	}
	var ack updateAck
	if err := json.Unmarshal(body, &ack); err != nil {
		return updateAck{}, lat, fmt.Errorf("update response: %w", err)
	}
	return ack, lat, nil
}

// appliedSeq reads a document's applied-update sequence from GET /docs.
func (c *client) appliedSeq(doc string) (uint64, error) {
	body, _, err := c.do("GET", "/docs", nil)
	if err != nil {
		return 0, err
	}
	var list struct {
		Docs []struct {
			Name       string `json:"name"`
			AppliedSeq uint64 `json:"applied_seq"`
		} `json:"docs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return 0, err
	}
	for _, d := range list.Docs {
		if d.Name == doc {
			return d.AppliedSeq, nil
		}
	}
	return 0, errors.New("document " + doc + " not listed")
}

// jsonEscape returns s as the server's JSON encoder writes it inside a
// string (no HTML escaping), without the surrounding quotes.
func jsonEscape(s []byte) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.Encode(string(s))
	out := bytes.TrimSuffix(b.Bytes(), []byte("\n"))
	return out[1 : len(out)-1]
}

var xmlField = []byte(`"xml": "`)

// answerMatches byte-checks a /query response against literal+ref. An XML
// response must equal them; in a JSON envelope the escaped forms must
// follow the "xml" key, and if the envelope is laid out differently the
// body is decoded in full.
func answerMatches(body []byte, xml bool, literal string, ref *reference) bool {
	if xml {
		return len(body) == len(literal)+len(ref.raw) &&
			bytes.HasPrefix(body, []byte(literal)) && bytes.Equal(body[len(literal):], ref.raw)
	}
	if i := bytes.Index(body, xmlField); i >= 0 {
		rest := body[i+len(xmlField):]
		if n := len(literal) + len(ref.escaped); len(rest) > n && rest[n] == '"' &&
			bytes.HasPrefix(rest, []byte(literal)) && bytes.Equal(rest[len(literal):n], ref.escaped) {
			return true
		}
	}
	var env struct {
		XML string `json:"xml"`
	}
	if json.Unmarshal(body, &env) != nil {
		return false
	}
	return env.XML == literal+string(ref.raw)
}
