// Package errpath exercises the errpath analyzer. writeJSON is a
// stand-in for the service's central writer (the default value of
// -errpath.writers).
package errpath

import (
	"encoding/json"
	"net/http"
)

// writeJSON is the sanctioned central writer: direct WriteHeader and
// Encode are allowed inside it.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// badHandler bypasses the central writer three ways.
func badHandler(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "nope", http.StatusBadRequest)  // want `http.Error bypasses the service's central error writer`
	w.WriteHeader(http.StatusInternalServerError) // want `direct WriteHeader on an http.ResponseWriter`
	_ = json.NewEncoder(w).Encode("x")            // want `json.NewEncoder\(w\).Encode writes a response outside the central`
}

// goodHandler routes through the central writer.
func goodHandler(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
}

// statusRecorder mimics the middleware's response recorder: a method
// itself named WriteHeader is a ResponseWriter implementation, not a
// bypass.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// justified streams its own header with a written reason.
func justified(w http.ResponseWriter, r *http.Request) {
	//mdsvet:ignore errpath -- streaming endpoint writes its own header before the body
	w.WriteHeader(http.StatusNoContent)
}

// notAWriter: Encode to something that is not a ResponseWriter is fine.
func notAWriter(v any) error {
	return json.NewEncoder(nil).Encode(v)
}
