package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"

	"hmcsim/internal/server/api"
)

// maxBodyBytes bounds a submission body; specs are small.
const maxBodyBytes = 1 << 20

// LegacySunset is the removal date of the pre-versioning path aliases
// (/api/v1/jobs, /metrics, /healthz), served on alias responses as an
// RFC 8594 Sunset header. Until then the aliases serve payloads
// identical to their /v1 counterparts; after it a release may drop them
// (hmcsim-serve -legacy-paths=false previews that world today).
const LegacySunset = "Sun, 01 Aug 2027 00:00:00 GMT"

// HandlerOptions selects the optional parts of the HTTP surface.
type HandlerOptions struct {
	// LegacyPaths keeps the deprecated pre-versioning aliases mounted.
	// NewHandler defaults it on; hmcsim-serve exposes it as
	// -legacy-paths so operators can turn the old surface off ahead of
	// the LegacySunset removal date and find lagging clients by their
	// 404s.
	LegacyPaths bool
	// Pprof mounts net/http/pprof under /debug/pprof/. Profiling
	// exposes goroutine stacks and heap contents, so it is opt-in
	// (cmd/hmcsim-serve -pprof) rather than part of the default
	// surface.
	Pprof bool
}

// NewHandler mounts the JSON API for m under the canonical /v1/ prefix:
//
//	POST   /v1/jobs              submit a JobSpec -> 202 Status
//	GET    /v1/jobs              list jobs        -> 200 [Status] in submission
//	                                                 order (paged via ?limit=/?after=)
//	GET    /v1/jobs/{id}         poll one job     -> 200 Status (result when done)
//	GET    /v1/jobs/{id}/events  follow one job   -> 200 text/event-stream
//	DELETE /v1/jobs/{id}         cancel a job     -> 200 Status
//	GET    /v1/metrics           metrics          -> 200 JSON object, or Prometheus
//	                                                 text under Accept: text/plain
//	GET    /v1/healthz           liveness/drain   -> 200 ok | 503 draining
//
// Every route accepts "Authorization: Bearer <key>": a key owned by a
// configured tenant resolves the request onto that tenant (quotas and
// fair-share weight apply to its submissions), an unknown or malformed
// header is rejected with 401 "unauthorized", and no header at all runs
// the request as the anonymous tenant — the entire pre-tenancy surface
// is that last path, byte-identical.
//
// Job visibility is tenant-scoped: listing shows only the calling
// tenant's jobs, and reading, streaming or cancelling a job another
// tenant owns answers 404 "unknown_job" — identical to an absent ID, so
// the sequential job IDs leak no existence information and no tenant
// can cancel a competitor's work to free queue capacity. Anonymous
// requests see only anonymous jobs; with no roster configured every job
// and every request is anonymous, which is exactly the pre-tenancy
// behavior.
//
// The pre-versioning paths (/api/v1/jobs, /api/v1/jobs/{id}, /metrics,
// /healthz) remain mounted as aliases serving identical payloads; alias
// responses carry a "Deprecation: true" header so clients can detect
// they are on the legacy surface.
//
// Error mapping: invalid spec 400 (code "unknown_field" when the body
// carries a field outside the v1 schema, "invalid_spec" otherwise),
// bad query parameters 400 "bad_request", bad credentials 401, unknown
// job 404, cancel-after-finish 409, queue full 429 (with Retry-After),
// tenant quota exhausted 429 "quota_exceeded", shutting down 503. Error
// bodies are the api.Error envelope: {"code": "...", "error": "..."}.
func NewHandler(m *Manager) http.Handler {
	return NewHandlerWithOptions(m, HandlerOptions{LegacyPaths: true})
}

// NewHandlerWithOptions is NewHandler with the optional surface made
// explicit; see HandlerOptions.
func NewHandlerWithOptions(m *Manager, o HandlerOptions) http.Handler {
	mux := http.NewServeMux()

	handlers := map[string]http.HandlerFunc{
		"POST /v1/jobs": func(w http.ResponseWriter, r *http.Request) {
			var spec JobSpec
			body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
			dec := json.NewDecoder(body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				writeError(w, http.StatusBadRequest, decodeCode(err), err)
				return
			}
			if spec.IdempotencyKey == "" {
				spec.IdempotencyKey = r.Header.Get("Idempotency-Key")
			}
			st, created, err := m.SubmitTenant(spec, tenantFrom(r))
			if err != nil {
				code, status := submitStatus(err)
				switch status {
				case http.StatusTooManyRequests:
					// Derived from queue occupancy and observed mean job
					// service time rather than a hardcoded constant.
					w.Header().Set("Retry-After", strconv.Itoa(m.RetryAfter()))
				case http.StatusServiceUnavailable:
					if errors.Is(err, ErrRecovering) {
						// Recovery is short: replay plus requeue.
						w.Header().Set("Retry-After", "1")
					}
				}
				writeError(w, status, code, err)
				return
			}
			if created {
				writeJSON(w, http.StatusAccepted, st)
			} else {
				// Idempotent replay: the key matched an existing job.
				writeJSON(w, http.StatusOK, st)
			}
		},
		"GET /v1/jobs": func(w http.ResponseWriter, r *http.Request) {
			// Paged listing in submission order: ?limit= bounds the page
			// (default defaultListLimit, ceiling maxListLimit), ?after=
			// resumes past a previous page's last ID. A malformed limit
			// or cursor is 400 bad_request. The body stays a bare JSON
			// array — pre-paging clients decode it unchanged — and the
			// next cursor travels in the X-Next-After header.
			limit := defaultListLimit
			if raw := r.URL.Query().Get("limit"); raw != "" {
				n, err := strconv.Atoi(raw)
				if err != nil || n <= 0 {
					writeError(w, http.StatusBadRequest, api.CodeBadRequest,
						fmt.Errorf("server: limit must be a positive integer, got %q", raw))
					return
				}
				limit = n
			}
			after := r.URL.Query().Get("after")
			if _, ok := parseJobID(after); after != "" && !ok {
				writeError(w, http.StatusBadRequest, api.CodeBadRequest,
					fmt.Errorf("server: after must be a job ID, got %q", after))
				return
			}
			page, next := m.ListPageTenant(tenantFrom(r), after, limit)
			if next != "" {
				w.Header().Set("X-Next-After", next)
			}
			writeJSON(w, http.StatusOK, page)
		},
		"GET /v1/jobs/{id}": func(w http.ResponseWriter, r *http.Request) {
			st, err := m.GetTenant(r.PathValue("id"), tenantFrom(r))
			if err != nil {
				writeError(w, http.StatusNotFound, api.CodeUnknownJob, err)
				return
			}
			writeJSON(w, http.StatusOK, st)
		},
		"GET /v1/jobs/{id}/events": func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			// Ownership is checked once here: a job's tenant is immutable,
			// so the streaming loop itself needs no further authorization.
			if _, err := m.GetTenant(id, tenantFrom(r)); err != nil {
				writeError(w, http.StatusNotFound, api.CodeUnknownJob, err)
				return
			}
			interval, err := sseInterval(r.URL.Query().Get("interval_ms"))
			if err != nil {
				writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
				return
			}
			m.streamEvents(w, r, id, interval)
		},
		"DELETE /v1/jobs/{id}": func(w http.ResponseWriter, r *http.Request) {
			st, err := m.CancelTenant(r.PathValue("id"), tenantFrom(r))
			switch {
			case errors.Is(err, ErrUnknownJob):
				writeError(w, http.StatusNotFound, api.CodeUnknownJob, err)
			case errors.Is(err, ErrJobFinished):
				writeError(w, http.StatusConflict, api.CodeJobFinished, err)
			case err != nil:
				writeError(w, http.StatusInternalServerError, api.CodeInternal, err)
			default:
				writeJSON(w, http.StatusOK, st)
			}
		},
		"GET /v1/metrics": func(w http.ResponseWriter, r *http.Request) {
			if wantsPrometheus(r.Header.Get("Accept")) {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				m.Metrics().WritePrometheus(w)
				return
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			m.Metrics().WriteJSON(w)
		},
		"GET /v1/healthz": func(w http.ResponseWriter, r *http.Request) {
			if m.Draining() {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			if m.Recovering() {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "recovering", http.StatusServiceUnavailable)
				return
			}
			io.WriteString(w, "ok\n")
		},
	}

	// legacyAliases maps each pre-versioning pattern onto its canonical
	// /v1 handler.
	legacyAliases := map[string]string{
		"POST /api/v1/jobs":        "POST /v1/jobs",
		"GET /api/v1/jobs":         "GET /v1/jobs",
		"GET /api/v1/jobs/{id}":    "GET /v1/jobs/{id}",
		"DELETE /api/v1/jobs/{id}": "DELETE /v1/jobs/{id}",
		"GET /metrics":             "GET /v1/metrics",
		"GET /healthz":             "GET /v1/healthz",
	}

	for pattern, h := range handlers {
		mux.HandleFunc(pattern, authenticated(m, h))
	}
	if o.LegacyPaths {
		for pattern, canonical := range legacyAliases {
			mux.HandleFunc(pattern, deprecated(authenticated(m, handlers[canonical])))
		}
	}
	if o.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// tenantCtxKey carries the resolved internal tenant name through the
// request context, from the mux-level auth check to the submit handler.
type tenantCtxKey struct{}

// tenantFrom reads the tenant the auth layer resolved for this request;
// "" (the anonymous tenant) when none authenticated.
func tenantFrom(r *http.Request) string {
	if v, ok := r.Context().Value(tenantCtxKey{}).(string); ok {
		return v
	}
	return ""
}

// authenticated is the mux-level tenancy check, applied to every route:
// a request carrying "Authorization: Bearer <key>" must present a key a
// configured tenant owns — anything else is 401 with the "unauthorized"
// code — and the resolved tenant rides the request context into the
// handlers. Requests without the header pass through untouched as the
// anonymous tenant, so the whole pre-tenancy surface (and its tests and
// goldens) behaves byte-identically.
func authenticated(m *Manager, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		auth := r.Header.Get("Authorization")
		if auth == "" {
			h(w, r)
			return
		}
		const scheme = "Bearer "
		if len(auth) <= len(scheme) || !strings.EqualFold(auth[:len(scheme)], scheme) {
			writeError(w, http.StatusUnauthorized, api.CodeUnauthorized,
				errors.New("server: malformed Authorization header; want Bearer <key>"))
			return
		}
		tenant, ok := m.TenantForKey(strings.TrimSpace(auth[len(scheme):]))
		if !ok {
			writeError(w, http.StatusUnauthorized, api.CodeUnauthorized,
				errors.New("server: unknown API key"))
			return
		}
		h(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tenant)))
	}
}

// decodeCode classifies a submission-decode failure: an unknown-field
// rejection (from DisallowUnknownFields) gets its own code so clients
// can distinguish a typo'd field name from a value error. encoding/json
// gives the rejection no typed error, only the message "json: unknown
// field %q", so classification is by substring.
func decodeCode(err error) string {
	if strings.Contains(err.Error(), "unknown field") {
		return api.CodeUnknownField
	}
	return api.CodeInvalidSpec
}

// wantsPrometheus decides the exposition format of /v1/metrics from the
// Accept header. Prometheus scrapers send text/plain (the classic
// exposition type) or application/openmetrics-text; everything else —
// including no Accept header at all — gets the legacy JSON object.
func wantsPrometheus(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		switch mt {
		case "text/plain", "application/openmetrics-text":
			return true
		}
	}
	return false
}

// deprecated wraps a canonical handler for serving on a legacy path: the
// payload is identical, plus a Deprecation header (RFC 9745 style) and
// the RFC 8594 Sunset date so clients and proxies can flag the old
// surface and see its removal schedule.
func deprecated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Sunset", LegacySunset)
		h(w, r)
	}
}

// submitStatus maps a Submit error onto its wire code and HTTP status.
func submitStatus(err error) (code string, status int) {
	switch {
	case errors.Is(err, ErrQuotaExceeded):
		return api.CodeQuotaExceeded, http.StatusTooManyRequests
	case errors.Is(err, ErrQueueFull):
		return api.CodeQueueFull, http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return api.CodeShuttingDown, http.StatusServiceUnavailable
	case errors.Is(err, ErrRecovering):
		return api.CodeRecovering, http.StatusServiceUnavailable
	default:
		return api.CodeInvalidSpec, http.StatusBadRequest
	}
}

// jsonEncoder is a pooled indenting encoder. The json.Encoder writes
// through it to w, which is set for one Encode; the encoder's indent
// buffer, which a fresh encoder would regrow for every response, lives
// on across responses.
type jsonEncoder struct {
	enc *json.Encoder
	w   io.Writer
	n   int // bytes of the last write
}

func (e *jsonEncoder) Write(p []byte) (int, error) {
	e.n = len(p)
	return e.w.Write(p)
}

// maxPooledJSON bounds the response size whose encoder goes back to the
// pool, so one large listing does not pin its indent buffer.
const maxPooledJSON = 1 << 20

var jsonEncoders = sync.Pool{New: func() any {
	e := &jsonEncoder{}
	e.enc = json.NewEncoder(e)
	e.enc.SetIndent("", "  ")
	return e
}}

// writeJSON writes v as indented JSON plus a newline — the bytes of
// json.MarshalIndent(v, "", "  ") and "\n" — in one Write.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	e := jsonEncoders.Get().(*jsonEncoder)
	e.w, e.n = w, 0
	err := e.enc.Encode(v)
	e.w = nil
	// A failed write leaves the encoder's error sticky: drop it.
	if err == nil && e.n <= maxPooledJSON {
		jsonEncoders.Put(e)
	}
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, api.Error{Code: code, Message: err.Error()})
}
