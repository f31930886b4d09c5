// Package obs holds the shared observability plumbing: structured-logger
// construction from the -log-format/-log-level flags, and request-ID
// generation for the X-Ptucker-Request-Id correlation header that the
// server echoes on every response and the replication client stamps on
// every bootstrap/poll request.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// RequestIDHeader carries the per-request correlation ID. Servers echo the
// caller-supplied value (or a generated one) on the response and attach it
// to the access-log line; the follower's journal client generates one per
// upstream request so a slow poll can be found in the primary's log.
const RequestIDHeader = "X-Ptucker-Request-Id"

// maxRequestIDLen caps accepted caller-supplied IDs so a hostile client
// cannot bloat logs; longer or non-clean IDs are replaced, not truncated.
const maxRequestIDLen = 64

// NewRequestID returns a fresh 16-hex-char correlation ID. It reads
// crypto/rand: IDs must be unpredictable across processes without
// coordination, and the math/rand-seeding rules (enforced by the
// seededrand analyzer) are about reproducible experiments, not IDs.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the platforms we run on; a broken
		// entropy source should not take request serving down.
		return "rand-unavailable"
	}
	var id [16]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// CleanRequestID validates a caller-supplied correlation ID: non-empty, at
// most 64 chars, drawn from [A-Za-z0-9._-]. Anything else returns false
// and the caller should generate a fresh ID instead.
func CleanRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// NewLogger builds a slog.Logger writing to w. format is "text" or "json"
// (empty means text); level is "debug", "info", "warn", or "error" (empty
// means info).
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lvl = slog.LevelInfo
	case "debug":
		lvl = slog.LevelDebug
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
	return slog.New(h), nil
}
