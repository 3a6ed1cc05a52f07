package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"chex86/internal/campaign"
)

// Error codes carried in HTTP error bodies so sentinel errors survive the
// wire (the client re-wraps them).
const (
	codeUnknownWorker   = "unknown-worker"
	codeQueueFull       = "queue-full"
	codeUnknownCampaign = "unknown-campaign"
)

// httpError is every non-2xx fabric response body.
type httpError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// errorCode maps sentinel errors to wire codes.
func errorCode(err error) string {
	switch {
	case errors.Is(err, ErrUnknownWorker):
		return codeUnknownWorker
	case errors.Is(err, ErrQueueFull):
		return codeQueueFull
	case errors.Is(err, ErrUnknownCampaign):
		return codeUnknownCampaign
	}
	return ""
}

// codeError maps wire codes back to sentinel-wrapped errors.
func codeError(code, msg string) error {
	switch code {
	case codeUnknownWorker:
		return fmt.Errorf("%w: %s", ErrUnknownWorker, msg)
	case codeQueueFull:
		return fmt.Errorf("%w: %s", ErrQueueFull, msg)
	case codeUnknownCampaign:
		return fmt.Errorf("%w: %s", ErrUnknownCampaign, msg)
	}
	return errors.New(msg)
}

func writeFabricJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func writeFabricError(w http.ResponseWriter, status int, err error) {
	writeFabricJSON(w, status, httpError{Error: err.Error(), Code: errorCode(err)})
}

// Handler serves the coordinator's worker-facing wire protocol under
// /fabric/v1/. Mount it on the chexd mux (or any mux) with
// mux.Handle("/fabric/v1/", c.Handler()).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fabric/v1/register", func(w http.ResponseWriter, r *http.Request) {
		var info WorkerInfo
		if err := json.NewDecoder(r.Body).Decode(&info); err != nil {
			writeFabricError(w, http.StatusBadRequest, fmt.Errorf("bad register body: %w", err))
			return
		}
		reply, err := c.Register(r.Context(), info)
		if err != nil {
			writeFabricError(w, http.StatusBadRequest, err)
			return
		}
		writeFabricJSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc("POST /fabric/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			WorkerID string `json:"workerId"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeFabricError(w, http.StatusBadRequest, fmt.Errorf("bad heartbeat body: %w", err))
			return
		}
		if err := c.Heartbeat(r.Context(), req.WorkerID); err != nil {
			writeFabricError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /fabric/v1/deregister", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			WorkerID string `json:"workerId"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeFabricError(w, http.StatusBadRequest, fmt.Errorf("bad deregister body: %w", err))
			return
		}
		if err := c.Deregister(r.Context(), req.WorkerID); err != nil {
			writeFabricError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /fabric/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			WorkerID string `json:"workerId"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeFabricError(w, http.StatusBadRequest, fmt.Errorf("bad lease body: %w", err))
			return
		}
		l, err := c.Lease(r.Context(), req.WorkerID)
		if err != nil {
			writeFabricError(w, statusFor(err), err)
			return
		}
		if l == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeFabricJSON(w, http.StatusOK, l)
	})
	mux.HandleFunc("POST /fabric/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeFabricError(w, http.StatusBadRequest, fmt.Errorf("bad complete body: %w", err))
			return
		}
		if err := c.Complete(r.Context(), req); err != nil {
			writeFabricError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /fabric/v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		res, err := c.FetchResult(r.Context(), r.PathValue("key"))
		if err != nil {
			writeFabricError(w, http.StatusInternalServerError, err)
			return
		}
		if res == nil {
			writeFabricError(w, http.StatusNotFound, fmt.Errorf("no cached result for %s", r.PathValue("key")))
			return
		}
		writeFabricJSON(w, http.StatusOK, res)
	})
	return mux
}

// statusFor maps coordinator errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownWorker):
		return http.StatusNotFound
	case errors.Is(err, ErrUnknownCampaign):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	}
	return http.StatusBadRequest
}

// Client is the worker-side HTTP Transport: it speaks the /fabric/v1 wire
// protocol against a coordinator base URL.
type Client struct {
	base string
	hc   *http.Client
}

var _ Transport = (*Client)(nil)

// NewClient builds a transport for a coordinator base URL (e.g.
// "http://127.0.0.1:8086"). hc nil uses a client with a 30s overall
// request timeout.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, hc: hc}
}

// do posts a JSON body and decodes a JSON reply into out (out nil =
// discard). 204 means "no content" and leaves out untouched.
func (cl *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, cl.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return fmt.Errorf("fabric: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return nil
	}
	if resp.StatusCode >= 300 {
		var he httpError
		if err := json.NewDecoder(resp.Body).Decode(&he); err != nil || he.Error == "" {
			return fmt.Errorf("fabric: %s %s: HTTP %d", method, path, resp.StatusCode)
		}
		return codeError(he.Code, he.Error)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (cl *Client) Register(ctx context.Context, info WorkerInfo) (*RegisterReply, error) {
	var reply RegisterReply
	if err := cl.do(ctx, http.MethodPost, "/fabric/v1/register", info, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

func (cl *Client) Heartbeat(ctx context.Context, workerID string) error {
	return cl.do(ctx, http.MethodPost, "/fabric/v1/heartbeat", map[string]string{"workerId": workerID}, nil)
}

func (cl *Client) Deregister(ctx context.Context, workerID string) error {
	return cl.do(ctx, http.MethodPost, "/fabric/v1/deregister", map[string]string{"workerId": workerID}, nil)
}

func (cl *Client) Lease(ctx context.Context, workerID string) (*Lease, error) {
	var l Lease
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.base+"/fabric/v1/lease",
		bytes.NewReader([]byte(fmt.Sprintf(`{"workerId":%q}`, workerID))))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fabric: lease: %w", err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return nil, nil
	case resp.StatusCode >= 300:
		var he httpError
		if err := json.NewDecoder(resp.Body).Decode(&he); err != nil || he.Error == "" {
			return nil, fmt.Errorf("fabric: lease: HTTP %d", resp.StatusCode)
		}
		return nil, codeError(he.Code, he.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		return nil, fmt.Errorf("fabric: lease decode: %w", err)
	}
	return &l, nil
}

func (cl *Client) Complete(ctx context.Context, req CompleteRequest) error {
	return cl.do(ctx, http.MethodPost, "/fabric/v1/complete", req, nil)
}

func (cl *Client) FetchResult(ctx context.Context, key string) (*campaign.Result, error) {
	var res campaign.Result
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.base+"/fabric/v1/cache/"+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fabric: fetch %s: %w", key, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil, nil
	}
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("fabric: fetch %s: HTTP %d", key, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("fabric: fetch decode: %w", err)
	}
	return &res, nil
}
