package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/persist"
	"disksig/internal/route"
	"disksig/internal/server"
	"disksig/internal/smart"
)

// diskserve's serving defaults: 16 shards, GOMAXPROCS ingest workers
// (Workers 0), 64 in-flight requests (server.Config's zero value), a
// one-minute background snapshot for a durable node, and a follower
// that self-promotes after 5 s without its primary, probing at a fifth
// of that.
const (
	serveShards       = 16
	serveSnapshotTick = time.Minute
	followerPromote   = 5 * time.Second
)

func fleetConfig() fleet.Config {
	return fleet.Config{Shards: serveShards, Monitor: monitor.Config{}}
}

// node is one in-process diskserve storage node on a loopback port.
type node struct {
	id    string
	url   string
	store *fleet.Store
	srv   *server.Server
	mgr   *persist.Manager
	hs    *http.Server // set when the handler is served behind a span wrapper
	done  chan error
}

// serve starts serving the node on l: through diskserve's own
// Server.Serve, or, when tracing, through an http.Server with the same
// header timeout whose handler is wrapped.
func (n *node) serve(l net.Listener, tr *tracer, layer string) {
	n.done = make(chan error, 1)
	if tr.on {
		n.hs = &http.Server{Handler: tr.wrap(layer, n.srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
		go func() { n.done <- n.hs.Serve(l) }()
		return
	}
	go func() { n.done <- n.srv.Serve(l) }()
}

func (n *node) stop(ctx context.Context) error {
	var err error
	if n.hs != nil {
		err = n.hs.Shutdown(ctx)
	} else {
		err = n.srv.Shutdown(ctx)
	}
	if serr := <-n.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if n.mgr != nil {
		err = errors.Join(err, n.mgr.Close())
	}
	return err
}

// stack is one workload's serving topology. Writers and readers talk
// to entry; nodes hold the fleet state.
type stack struct {
	nodes      []*node // storage nodes; in replicated-json nodes[0] is the primary
	follower   *node
	router     *route.Router
	routeMap   *route.Map
	routerHS   *http.Server
	routerDone chan error
	entry      string
	dir        string
	cancel     context.CancelFunc // stops the follower's primary watch
	watching   chan struct{}
}

// listen opens a loopback listener and returns it with its base URL.
func listen() (net.Listener, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("loopback listener: %w", err)
	}
	return l, "http://" + l.Addr().String(), nil
}

// startStack stands up the workload's topology with freshly trained
// models and waits until every node is ready, the follower is
// bootstrapped and the router has probed its nodes ready.
func startStack(w workload, models []monitor.GroupModel, norm *smart.Normalizer, dir string, tr *tracer) (*stack, error) {
	st := &stack{dir: dir}
	ok := false
	defer func() {
		if !ok {
			st.stop()
		}
	}()
	newNode := func(id string) (*node, net.Listener, error) {
		store, err := fleet.New(models, norm, fleetConfig())
		if err != nil {
			return nil, nil, err
		}
		l, url, err := listen()
		if err != nil {
			return nil, nil, err
		}
		return &node{id: id, url: url, store: store}, l, nil
	}
	switch w.topology {
	case topoSingle, topoRouted:
		ids := []string{"n1"}
		if w.topology == topoRouted {
			ids = []string{"n1", "n2"}
		}
		for _, id := range ids {
			n, l, err := newNode(id)
			if err != nil {
				return nil, err
			}
			n.srv = server.New(n.store, server.Config{})
			n.serve(l, tr, "node")
			st.nodes = append(st.nodes, n)
		}
	case topoReplicated:
		n, l, err := newNode("primary")
		if err != nil {
			return nil, err
		}
		if n.mgr, err = persist.Open(filepath.Join(dir, "primary")); err != nil {
			l.Close()
			return nil, err
		}
		// diskserve commits a seed snapshot before serving, so the trained
		// models are durable from the first batch on.
		if _, err := n.mgr.Snapshot(n.store); err != nil {
			l.Close()
			n.mgr.Close()
			return nil, fmt.Errorf("seed snapshot: %w", err)
		}
		n.srv = server.New(n.store, server.Config{
			Persist:       n.mgr,
			SnapshotEvery: serveSnapshotTick,
			Replication:   &server.ReplicationOptions{Role: server.RolePrimary, Term: 1, SelfURL: n.url},
		})
		n.serve(l, tr, "node")
		st.nodes = append(st.nodes, n)

		fl, furl, err := listen()
		if err != nil {
			return nil, err
		}
		store, ropts, err := server.BootstrapFollower(n.url, furl, fleetConfig(), nil)
		if err != nil {
			fl.Close()
			return nil, err
		}
		f := &node{id: "follower", url: furl, store: store}
		f.srv = server.New(store, server.Config{Replication: &ropts})
		f.serve(fl, tr, "follower")
		st.follower = f
		ctx, cancel := context.WithCancel(context.Background())
		st.cancel, st.watching = cancel, make(chan struct{})
		go func() {
			defer close(st.watching)
			f.srv.WatchPrimary(ctx, followerPromote/5, followerPromote)
		}()
	}
	for _, n := range st.allNodes() {
		if err := waitReady(n.url, 10*time.Second); err != nil {
			return nil, err
		}
	}
	st.entry = st.nodes[0].url
	if w.topology == topoRouted {
		var rn []route.Node
		for _, n := range st.nodes {
			rn = append(rn, route.Node{ID: n.id, URL: n.url})
		}
		m, err := route.NewMap(1, rn)
		if err != nil {
			return nil, err
		}
		rt, err := route.NewRouter(route.Config{Map: m})
		if err != nil {
			return nil, err
		}
		st.router, st.routeMap = rt, m
		rt.ForceProbe()
		l, url, err := listen()
		if err != nil {
			return nil, err
		}
		st.routerHS = &http.Server{Handler: tr.wrap("router", rt.Handler())}
		st.routerDone = make(chan error, 1)
		go func() { st.routerDone <- st.routerHS.Serve(l) }()
		st.entry = url
		if err := waitReady(url, 10*time.Second); err != nil {
			return nil, err
		}
	}
	ok = true
	return st, nil
}

// allNodes returns every node that serves HTTP, follower included.
func (st *stack) allNodes() []*node {
	all := append([]*node(nil), st.nodes...)
	if st.follower != nil {
		all = append(all, st.follower)
	}
	return all
}

// stop shuts the topology down front to back and removes its state
// directory.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var err error
	if st.routerHS != nil {
		err = errors.Join(err, st.routerHS.Shutdown(ctx))
		if serr := <-st.routerDone; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
	}
	if st.router != nil {
		st.router.Close()
	}
	if st.cancel != nil {
		st.cancel()
		<-st.watching
	}
	for _, n := range st.nodes {
		err = errors.Join(err, n.stop(ctx))
	}
	if st.follower != nil {
		err = errors.Join(err, st.follower.stop(ctx))
	}
	if st.dir != "" {
		err = errors.Join(err, os.RemoveAll(st.dir))
	}
	return err
}
