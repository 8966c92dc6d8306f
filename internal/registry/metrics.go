package registry

import (
	"net/http"

	"targad/internal/obs"
)

// handleMetrics renders the registry-wide Prometheus exposition: every
// hot model's own series under a {model="..."} label, the registry's
// lifecycle series, and the build info. Label values are hot-map keys —
// manifest-validated names, never raw request headers — so a scraping
// storm of bogus model names cannot explode series cardinality.
func (r *Registry) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.writeJSONError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	ow := obs.New()
	names := r.Hot()
	hot := *r.hot.Load()
	for _, name := range names {
		if e, ok := hot[name]; ok { // else evicted between Hot() and the map load
			e.srv.WriteMetrics(ow.With("model", name))
		}
	}

	c := r.Counters()
	ow.Gauge("targad_registry_models", "Models listed in the manifest.", float64(c.Models))
	ow.Gauge("targad_registry_hot_models", "Models currently loaded.", float64(c.HotModels))
	ow.Gauge("targad_registry_max_hot", "Bound on simultaneously loaded models.", float64(c.MaxHot))
	ow.Counter("targad_registry_loads_total", "Cold-model loads completed.", c.Loads)
	ow.Counter("targad_registry_load_errors_total", "Cold-model loads that failed.", c.LoadErrs)
	ow.Counter("targad_registry_evictions_total", "Models evicted from the hot set (LRU).", c.Evictions)
	ow.Counter("targad_registry_singleflight_waits_total", "Requests that waited on another request's cold load.", c.SingleflightWaits)
	ow.BuildInfo()

	w.Header().Set("Content-Type", obs.ContentType)
	_, _ = ow.WriteTo(w)
}
