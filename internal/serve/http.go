package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"repro/internal/algo"
	"repro/internal/evolve"
	"repro/internal/graph"
)

// HTTP/JSON front end. Every query endpoint takes a POST with a small
// JSON body and returns the corresponding answer struct; errors come
// back as {"error": "..."} with the status the error class maps to:
//
//	400  malformed JSON / unknown fields / wrong types, invalid
//	     mutation batches (evolve.ErrBadBatch, evolve.ErrBadOp)
//	404  unknown dataset, vertex out of range
//	413  request body over maxBodyBytes
//	429  admission control rejected the query (ErrOverloaded)
//	504  per-query deadline expired (algo.ErrDeadlineExceeded)
//	500  anything else (including a failed result certificate)

// Handler returns the daemon's HTTP API:
//
//	POST /query/bfs        {dataset, src, target}  -> BFSAnswer
//	POST /query/component  {dataset, vertex}       -> ComponentAnswer
//	POST /mutate           {dataset, seq, ops}     -> MutateAnswer
//	POST /compact          {dataset}               -> CompactAnswer
//	GET  /stats?dataset=D                          -> StatsAnswer
//	GET  /datasets                                 -> {datasets: [...]}
//	GET  /healthz                                  -> {ok: true}
//	GET  /metricz                                  -> obs registry JSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query/bfs", s.handleBFS)
	mux.HandleFunc("POST /query/component", s.handleComponent)
	mux.HandleFunc("POST /mutate", s.handleMutate)
	mux.HandleFunc("POST /compact", s.handleCompact)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /datasets", s.handleDatasets)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /metricz", s.handleMetricz)
	return mux
}

// queryBody covers every query endpoint's fields; each handler
// validates the subset it needs. Unknown fields are rejected so typos
// fail loudly instead of silently querying vertex 0; vertex fields are
// int64 so need can range-check them before narrowing.
type queryBody struct {
	Dataset string `json:"dataset"`
	Src     *int64 `json:"src,omitempty"`
	Target  *int64 `json:"target,omitempty"`
	Vertex  *int64 `json:"vertex,omitempty"`
}

// maxBodyBytes bounds every POST body. The largest legitimate request
// is a /mutate batch, a few dozen bytes per op; without a bound one
// request with an arbitrarily long ops array is read and allocated in
// full.
const maxBodyBytes = 1 << 20

// decodeInto reads r's JSON body into v, answering 413 for a body over
// maxBodyBytes and 400 for anything else that does not decode.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
	} else {
		writeError(w, http.StatusBadRequest, "malformed request body: "+err.Error())
	}
	return false
}

func decodeBody(w http.ResponseWriter, r *http.Request) (*queryBody, bool) {
	var q queryBody
	return &q, decodeInto(w, r, &q)
}

// need narrows a required vertex field to graph.VertexID. An ID
// outside int32 is answered 404 here: narrowed first, it would wrap
// onto some in-range vertex and be served.
func need(w http.ResponseWriter, name string, v *int64) (graph.VertexID, bool) {
	if v == nil {
		writeError(w, http.StatusBadRequest, "missing field: "+name)
		return 0, false
	}
	if *v < 0 || *v > math.MaxInt32 {
		writeQueryError(w, fmt.Errorf("%w: %s %d", ErrBadVertex, name, *v))
		return 0, false
	}
	return graph.VertexID(*v), true
}

func (s *Server) handleBFS(w http.ResponseWriter, r *http.Request) {
	q, ok := decodeBody(w, r)
	if !ok {
		return
	}
	src, ok := need(w, "src", q.Src)
	if !ok {
		return
	}
	target, ok := need(w, "target", q.Target)
	if !ok {
		return
	}
	ans, err := s.BFS(r.Context(), q.Dataset, src, target)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ans)
}

func (s *Server) handleComponent(w http.ResponseWriter, r *http.Request) {
	q, ok := decodeBody(w, r)
	if !ok {
		return
	}
	v, ok := need(w, "vertex", q.Vertex)
	if !ok {
		return
	}
	ans, err := s.Component(r.Context(), q.Dataset, v)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ans)
}

// mutateBody is the /mutate request: one edge-mutation batch. Ops
// apply in order ({"src":u,"dst":v} inserts, {"del":true,...} deletes).
type mutateBody struct {
	Dataset string      `json:"dataset"`
	Seq     uint64      `json:"seq"`
	Ops     []evolve.Op `json:"ops"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	var m mutateBody
	if !decodeInto(w, r, &m) {
		return
	}
	ans, err := s.Mutate(m.Dataset, evolve.Batch{Seq: m.Seq, Ops: m.Ops})
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ans)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	q, ok := decodeBody(w, r)
	if !ok {
		return
	}
	ans, err := s.Compact(q.Dataset)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ans)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ans, err := s.Stats(r.URL.Query().Get("dataset"))
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ans)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"datasets": s.Datasets()})
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	reg := s.cfg.Obs.R()
	if reg == nil {
		writeError(w, http.StatusNotFound, "no metrics session attached")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = reg.WriteJSON(w)
}

// writeQueryError maps a query-layer error to its HTTP status.
func writeQueryError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrOverloaded):
		status = http.StatusTooManyRequests
	case errors.Is(err, algo.ErrDeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, ErrUnknownDataset), errors.Is(err, ErrBadVertex):
		status = http.StatusNotFound
	case errors.Is(err, evolve.ErrBadBatch), errors.Is(err, evolve.ErrBadOp):
		status = http.StatusBadRequest
	}
	writeError(w, status, err.Error())
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
