package serve

import (
	"net/http"

	"targad/internal/wire"
)

// HTTPTimeouts is wire.HTTPTimeouts: the listener bounds every targad
// server runs behind. The names here forward to wire for callers that
// already build their server through serve.
type HTTPTimeouts = wire.HTTPTimeouts

// DefaultHTTPTimeouts returns wire.DefaultHTTPTimeouts().
func DefaultHTTPTimeouts() HTTPTimeouts { return wire.DefaultHTTPTimeouts() }

// NewHTTPServer returns wire.NewHTTPServer(addr, h, t).
func NewHTTPServer(addr string, h http.Handler, t HTTPTimeouts) *http.Server {
	return wire.NewHTTPServer(addr, h, t)
}
