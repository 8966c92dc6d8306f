package registry

import (
	"net/http"
	"strings"

	"targad/internal/serve"
	"targad/internal/wire"
)

// Handler returns the registry's HTTP routes. It is a hand-rolled path
// switch, not a ServeMux: the default-model /score path must add zero
// allocations over a single-model server, and a mux match is neither
// free nor necessary for a flat route table.
func (r *Registry) Handler() http.Handler { return handler{r} }

type handler struct{ r *Registry }

func (h handler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r := h.r
	switch req.URL.Path {
	case "/score":
		r.serveModel(w, req, "", (*serve.Server).HandleScore)
	case "/models":
		r.handleModels(w, req)
	case "/metrics":
		r.handleMetrics(w, req)
	case "/healthz", "/readyz":
		// Health belongs to the host, identity to the default entry;
		// the hot-model stamp rides along for fleet affinity probing.
		w.Header().Set(wire.HeaderModels, strings.Join(r.Hot(), ","))
		r.def.Server.Handler().ServeHTTP(w, req)
	default:
		// Admin endpoints (/reload, /drift, /retrain, /feedback, ...)
		// consult the query first — `curl /drift?model=acme-v2` beats
		// header plumbing for operators.
		r.serveModel(w, req, req.URL.Query().Get("model"), serveAdmin)
	}
}

// serveAdmin runs an admin request on one model's server.
func serveAdmin(s *serve.Server, w http.ResponseWriter, req *http.Request) {
	s.Handler().ServeHTTP(w, req)
}

// serveModel resolves the request's model and runs handle on its
// server. The name is the given one (an admin request's ?model=), else
// the X-Targad-Model header, else the tenant's mapping, else the
// default. The default — tenantless or default-tenant traffic — is the
// fast path: one pointer dereference on top of the single-model
// server, no map load, no refcount; the default entry is pinned for the
// process lifetime. Any other model is acquired (loaded cold if
// needed) and held for the request.
func (r *Registry) serveModel(w http.ResponseWriter, req *http.Request, name string,
	handle func(*serve.Server, http.ResponseWriter, *http.Request)) {
	if name == "" {
		name = req.Header.Get(wire.HeaderModel)
	}
	if name == "" {
		if tenant := req.Header.Get(wire.HeaderTenant); tenant != "" {
			name = r.tenantModel(tenant)
		}
	}
	if name == "" || name == r.def.name {
		handle(r.def.Server, w, req)
		return
	}
	e, release, err := r.acquire(name)
	if err != nil {
		r.writeError(w, req, err)
		return
	}
	defer release()
	handle(e.Server, w, req)
}

// handleModels answers GET /models: the manifest's view plus what is
// currently hot.
func (r *Registry) handleModels(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		wire.WriteError(w, false, http.StatusMethodNotAllowed, "GET required", 0)
		return
	}
	c := r.Counters()
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"default": r.man.Default,
		"models":  r.man.Names(),
		"hot":     r.Hot(),
		"max_hot": c.MaxHot,
		"tenants": len(r.man.Tenants),
	})
}

// writeError maps registry errors onto the request's protocol: an
// UnknownModelError is a 404, a closed registry a 503, anything else a
// 500; binary-frame requests get a binary error frame so their clients
// never have to parse JSON.
func (r *Registry) writeError(w http.ResponseWriter, req *http.Request, err error) {
	status := http.StatusInternalServerError
	switch {
	case isUnknownModel(err):
		status = http.StatusNotFound
	case err == ErrClosed:
		status = http.StatusServiceUnavailable
	}
	wire.WriteError(w, wire.IsFrame(req.Header), status, err.Error(), 0)
}

func isUnknownModel(err error) bool {
	_, ok := err.(*UnknownModelError)
	return ok
}
