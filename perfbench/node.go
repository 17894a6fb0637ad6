package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/serve"
)

// node is one in-process serve node on a loopback listener.
type node struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
	dir    string // disk-store directory, removed on close ("" = none)
}

// startNode boots a node the way cmd/wampde-server does — NewServer, then
// Handler() behind an http.Server — with prewarm on, and waits until
// /healthz reports ready. wrap, when non-nil, wraps the handler (the
// traced run's middleware).
func startNode(cfg serve.Config, storeDir string, wrap func(http.Handler) http.Handler) (*node, error) {
	cfg.Prewarm = true
	if storeDir != "" {
		if err := os.MkdirAll(storeDir, 0o755); err != nil {
			return nil, err
		}
		cfg.StoreDir = storeDir
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve.NewServer: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	n := &node{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(),
		served: make(chan error, 1), dir: storeDir}
	go func() { n.served <- n.hs.Serve(ln) }()
	if err := n.waitReady(2 * time.Minute); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

func (n *node) waitReady(limit time.Duration) error {
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := c.Get(n.url + "/healthz")
		if err == nil {
			var h struct {
				Ready bool `json:"ready"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && h.Ready {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("node not ready within " + limit.String())
}

// close stops the listener, waits for the serve goroutine, drains the
// node and removes its store.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n.hs.Shutdown(ctx)
	<-n.served
	n.srv.Close()
	if n.dir != "" {
		os.RemoveAll(n.dir)
	}
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 3 * time.Minute}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is what one request came back with.
type reply struct {
	status int
	xcache string
	body   []byte
}

// post sends one request and reads the whole reply.
func (c *client) post(it *item, traced bool) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+it.path, bytes.NewReader(it.body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(headerRequestID, it.id)
	if traced {
		req.Header.Set(headerTrace, "1")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, xcache: resp.Header.Get("X-Cache"), body: body}, nil
}
