package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestNewHTTPServerBounds pins the slow-client bounds derived from -timeout:
// header, whole-request, and idle bounds set, the whole-request bound above
// the journal long-poll cap, and no write bound to cut that poll.
func TestNewHTTPServerBounds(t *testing.T) {
	h := http.NotFoundHandler()
	for _, tc := range []struct {
		timeout, want time.Duration
	}{
		{5 * time.Second, 5 * time.Second},
		{0, serve.DefaultTimeout},
		{-1, serve.DefaultTimeout}, // handling bound off, connection bounds kept
	} {
		s := newHTTPServer(":0", h, tc.timeout)
		if s.Addr != ":0" || s.Handler == nil {
			t.Fatalf("timeout %v: addr %q handler %v", tc.timeout, s.Addr, s.Handler)
		}
		if s.ReadHeaderTimeout != tc.want {
			t.Errorf("timeout %v: ReadHeaderTimeout %v, want %v", tc.timeout, s.ReadHeaderTimeout, tc.want)
		}
		if s.ReadTimeout != tc.want+serve.MaxStreamWait {
			t.Errorf("timeout %v: ReadTimeout %v, want %v", tc.timeout, s.ReadTimeout, tc.want+serve.MaxStreamWait)
		}
		if s.IdleTimeout != 2*tc.want {
			t.Errorf("timeout %v: IdleTimeout %v, want %v", tc.timeout, s.IdleTimeout, 2*tc.want)
		}
		if s.WriteTimeout != 0 {
			t.Errorf("timeout %v: WriteTimeout %v would cut the journal long poll", tc.timeout, s.WriteTimeout)
		}
	}
}

// TestNewHTTPServerDropsSlowClients: a client that never finishes its
// headers, and a keep-alive connection left idle, are both closed by the
// server instead of holding a connection open indefinitely.
func TestNewHTTPServerDropsSlowClients(t *testing.T) {
	const timeout = 100 * time.Millisecond
	s := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}), timeout)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	defer s.Close()

	// waitClosed reads until the server hangs up, failing if it does not
	// within a generous multiple of the bound.
	waitClosed := func(c net.Conn, what string) {
		t.Helper()
		start := time.Now()
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := io.Copy(io.Discard, c)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%s: connection still open after %v", what, time.Since(start))
		}
	}

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET / HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	waitClosed(slow, "unfinished headers")

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET / HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(idle), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("in-bounds request: %d %q", resp.StatusCode, body)
	}
	waitClosed(idle, "idle keep-alive")
}
