package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client is a minimal cage-serve API client.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Tenant is sent as X-Cage-Tenant (empty means the default tenant).
	Tenant string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) do(method, path string, body io.Reader, out any) error {
	req, err := http.NewRequest(method, strings.TrimSuffix(c.BaseURL, "/")+path, body)
	if err != nil {
		return err
	}
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var eb errorBody
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error.Code != "" {
			return fmt.Errorf("serve: %s %s: %d %s: %s", method, path, resp.StatusCode, eb.Error.Code, eb.Error.Message)
		}
		return fmt.Errorf("serve: %s %s: status %d", method, path, resp.StatusCode)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Upload registers a module (MiniC source or binary wasm image) and
// returns its content-hash id.
func (c *Client) Upload(body []byte) (string, error) {
	var resp UploadResponse
	if err := c.do(http.MethodPost, "/v1/modules", bytes.NewReader(body), &resp); err != nil {
		return "", err
	}
	return resp.Module, nil
}

// Invoke calls an exported function of a registered module.
func (c *Client) Invoke(req InvokeRequest) (*InvokeResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp InvokeResponse
	if err := c.do(http.MethodPost, "/v1/invoke", bytes.NewReader(body), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches /v1/stats.
func (c *Client) Stats() (*Stats, error) {
	var s Stats
	if err := c.do(http.MethodGet, "/v1/stats", nil, &s); err != nil {
		return nil, err
	}
	return &s, nil
}
