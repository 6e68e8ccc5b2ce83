package service

import (
	"context"
	"errors"
	"fmt"

	"privascope/internal/dataflow"
)

// Cluster runs one datastore server per datastore of a data-flow model,
// sharing a single event log — the smallest deployment of the "distributed
// data services" the model describes. It is used by the runtime-monitoring
// example and the integration tests.
type Cluster struct {
	log     *Log
	servers map[string]*Server
}

// StartCluster starts a server for every datastore of the model on ephemeral
// local ports. The model must have an access-control policy attached.
func StartCluster(model *dataflow.Model) (*Cluster, error) {
	if model == nil {
		return nil, errors.New("service: model must not be nil")
	}
	if model.Policy == nil {
		return nil, errors.New("service: model has no access-control policy attached")
	}
	c := &Cluster{log: NewLog(), servers: make(map[string]*Server)}
	for _, def := range model.Datastores {
		store, err := NewDatastore(def, model.Policy, c.log)
		if err != nil {
			c.stopAll()
			return nil, err
		}
		server, err := StartServer(store, "127.0.0.1:0")
		if err != nil {
			c.stopAll()
			return nil, err
		}
		c.servers[def.ID] = server
	}
	return c, nil
}

func (c *Cluster) stopAll() {
	for _, s := range c.servers {
		_ = s.Stop(context.Background())
	}
}

// Stop shuts down every server in the cluster.
func (c *Cluster) Stop(ctx context.Context) error {
	var firstErr error
	for _, s := range c.servers {
		if err := s.Stop(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Log returns the cluster-wide event log.
func (c *Cluster) Log() *Log { return c.log }

// URL returns the base URL of the named datastore's server.
func (c *Cluster) URL(datastoreID string) (string, error) {
	s, ok := c.servers[datastoreID]
	if !ok {
		return "", fmt.Errorf("service: no server for datastore %q", datastoreID)
	}
	return s.URL(), nil
}

// Client returns a client for the named datastore bound to the given actor.
func (c *Cluster) Client(datastoreID, actor string) (*Client, error) {
	url, err := c.URL(datastoreID)
	if err != nil {
		return nil, err
	}
	return &Client{BaseURL: url, Actor: actor}, nil
}

// Datastores returns the IDs of the datastores served by the cluster.
func (c *Cluster) Datastores() []string {
	out := make([]string, 0, len(c.servers))
	for id := range c.servers {
		out = append(out, id)
	}
	return out
}
