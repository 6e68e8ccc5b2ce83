package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// Header names used by the datastore HTTP protocol.
const (
	// HeaderActor carries the identity of the acting actor. The substrate
	// deliberately trusts this header: authentication is out of scope for
	// the privacy model, which is concerned with what authenticated actors
	// may do.
	HeaderActor = "X-Privascope-Actor"
	// HeaderPurpose carries the purpose of the operation.
	HeaderPurpose = "X-Privascope-Purpose"
)

// putRequest is the JSON body of a PUT /records/{user} request.
type putRequest struct {
	Values map[string]string `json:"values"`
}

// getResponse is the JSON body of a GET /records/{user} response.
type getResponse struct {
	Values map[string]string `json:"values"`
}

// errorResponse is the JSON body of error responses.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the HTTP handler exposing the datastore:
//
//	PUT    /records/{user}            write fields (JSON body {"values": {...}})
//	GET    /records/{user}?fields=a,b read fields
//	DELETE /records/{user}?fields=a,b delete fields (all when omitted)
//	GET    /meta                      datastore definition
//
// The acting actor and purpose are carried in the HeaderActor and
// HeaderPurpose headers.
func (d *Datastore) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/meta", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.def)
	})
	mux.HandleFunc("/records/", func(w http.ResponseWriter, r *http.Request) {
		userID := strings.TrimPrefix(r.URL.Path, "/records/")
		if userID == "" || strings.Contains(userID, "/") {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "user ID missing or malformed"})
			return
		}
		actor := r.Header.Get(HeaderActor)
		if actor == "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing " + HeaderActor + " header"})
			return
		}
		purpose := r.Header.Get(HeaderPurpose)
		switch r.Method {
		case http.MethodPut:
			var req putRequest
			if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON body: " + err.Error()})
				return
			}
			if len(req.Values) == 0 {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: "no values provided"})
				return
			}
			if err := d.Put(actor, userID, purpose, req.Values); err != nil {
				writeJSON(w, statusOf(err), errorResponse{Error: err.Error()})
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case http.MethodGet:
			fields := splitFields(r.URL.Query().Get("fields"))
			if len(fields) == 0 {
				fields = d.def.Schema.FieldNames()
			}
			values, err := d.Get(actor, userID, purpose, fields)
			if err != nil {
				writeJSON(w, statusOf(err), errorResponse{Error: err.Error()})
				return
			}
			writeJSON(w, http.StatusOK, getResponse{Values: values})
		case http.MethodDelete:
			fields := splitFields(r.URL.Query().Get("fields"))
			if err := d.Delete(actor, userID, purpose, fields); err != nil {
				writeJSON(w, statusOf(err), errorResponse{Error: err.Error()})
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "method not allowed"})
		}
	})
	return mux
}

func splitFields(raw string) []string {
	if strings.TrimSpace(raw) == "" {
		return nil
	}
	parts := strings.Split(raw, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if trimmed := strings.TrimSpace(p); trimmed != "" {
			out = append(out, trimmed)
		}
	}
	return out
}

func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrDenied):
		return http.StatusForbidden
	case errors.Is(err, ErrUnknownField):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// Server wraps a Datastore in an HTTP server listening on a local port.
type Server struct {
	server   *http.Server
	listener net.Listener
	done     chan struct{}
	err      error
}

// StartServer starts serving the datastore on the given address
// ("127.0.0.1:0" picks a free port). Stop must be called to release the
// listener.
func StartServer(store *Datastore, addr string) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	listener, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("service: listening on %s: %w", addr, err)
	}
	s := &Server{
		listener: listener,
		server:   &http.Server{Handler: store.Handler(), ReadHeaderTimeout: 5 * time.Second},
		done:     make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.server.Serve(listener); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.err = err
		}
	}()
	return s, nil
}

// URL returns the base URL of the running server.
func (s *Server) URL() string { return "http://" + s.listener.Addr().String() }

// Stop shuts the server down and waits for the serve loop to exit.
func (s *Server) Stop(ctx context.Context) error {
	err := s.server.Shutdown(ctx)
	<-s.done
	if err != nil {
		return err
	}
	return s.err
}
