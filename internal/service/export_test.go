package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"privascope/internal/schema"
)

// SetClock overrides the time source; intended for tests.
func (l *Log) SetClock(clock func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.clock = clock
}

// Client is a typed HTTP client for a datastore server, bound to one actor.
type Client struct {
	// BaseURL is the server's base URL, e.g. "http://127.0.0.1:4121".
	BaseURL string
	// Actor is the acting actor sent with every request.
	Actor string
	// HTTPClient may be overridden; http.DefaultClient is used when nil.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) do(ctx context.Context, method, path, purpose string, query string, body any) (*http.Response, error) {
	var reader io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("service: encoding request: %w", err)
		}
		reader = bytes.NewReader(data)
	}
	url := c.BaseURL + path
	if query != "" {
		url += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, method, url, reader)
	if err != nil {
		return nil, fmt.Errorf("service: building request: %w", err)
	}
	req.Header.Set(HeaderActor, c.Actor)
	if purpose != "" {
		req.Header.Set(HeaderPurpose, purpose)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.httpClient().Do(req)
}

func decodeError(resp *http.Response) error {
	var er errorResponse
	_ = json.NewDecoder(resp.Body).Decode(&er)
	msg := er.Error
	if msg == "" {
		msg = resp.Status
	}
	if resp.StatusCode == http.StatusForbidden {
		return fmt.Errorf("%w: %s", ErrDenied, msg)
	}
	return fmt.Errorf("service: request failed (%d): %s", resp.StatusCode, msg)
}

// Put writes field values for a user.
func (c *Client) Put(ctx context.Context, userID, purpose string, values map[string]string) error {
	resp, err := c.do(ctx, http.MethodPut, "/records/"+userID, purpose, "", putRequest{Values: values})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return decodeError(resp)
	}
	return nil
}

// Get reads the requested fields of a user's record.
func (c *Client) Get(ctx context.Context, userID, purpose string, fields []string) (map[string]string, error) {
	query := ""
	if len(fields) > 0 {
		query = "fields=" + strings.Join(fields, ",")
	}
	resp, err := c.do(ctx, http.MethodGet, "/records/"+userID, purpose, query, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out getResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("service: decoding response: %w", err)
	}
	return out.Values, nil
}

// Client returns a client for the named datastore bound to the given actor.
func (c *Cluster) Client(datastoreID, actor string) (*Client, error) {
	url, err := c.URL(datastoreID)
	if err != nil {
		return nil, err
	}
	return &Client{BaseURL: url, Actor: actor}, nil
}

// Delete removes the given fields (all when empty) of a user's record.
func (c *Client) Delete(ctx context.Context, userID, purpose string, fields []string) error {
	query := ""
	if len(fields) > 0 {
		query = "fields=" + strings.Join(fields, ",")
	}
	resp, err := c.do(ctx, http.MethodDelete, "/records/"+userID, purpose, query, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return decodeError(resp)
	}
	return nil
}

// Definition returns the datastore's schema definition.
func (d *Datastore) Definition() schema.Datastore { return d.def }

// Users returns the IDs of users with at least one stored field, sorted.
func (d *Datastore) Users() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.records))
	for u := range d.records {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// FieldsOf returns the fields currently stored for the user, sorted.
func (d *Datastore) FieldsOf(userID string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	record := d.records[userID]
	out := make([]string, 0, len(record))
	for f := range record {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
