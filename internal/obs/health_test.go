package obs

import (
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHealthzRegistry(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Default, DefaultTracer))
	defer srv.Close()

	get := func() (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// No checks registered: plain liveness.
	if code, body := get(); code != 200 || body != "ok\n" {
		t.Fatalf("empty registry: %d %q", code, body)
	}

	RegisterHealthDetail("test/bus", func() (string, error) { return "", nil })
	RegisterHealthDetail("test/ring", func() (string, error) { return "", nil })
	defer UnregisterHealth("test/bus")
	defer UnregisterHealth("test/ring")
	if code, body := get(); code != 200 || body != "ok\n" {
		t.Fatalf("passing checks: %d %q", code, body)
	}

	// One failing check flips the probe to 503 and names the failure.
	RegisterHealthDetail("test/bus", func() (string, error) { return "", errors.New("degraded: broker unreachable") })
	code, body := get()
	if code != 503 {
		t.Fatalf("failing check: HTTP %d, want 503", code)
	}
	if !strings.Contains(body, "test/bus: degraded: broker unreachable") {
		t.Fatalf("failing check body %q", body)
	}
	if strings.Contains(body, "test/ring") {
		t.Fatalf("passing check listed as failure: %q", body)
	}

	// Recovery and unregistration restore readiness.
	RegisterHealthDetail("test/bus", func() (string, error) { return "", nil })
	if code, _ := get(); code != 200 {
		t.Fatalf("recovered check: HTTP %d", code)
	}
	UnregisterHealth("test/bus")
	UnregisterHealth("test/ring")
	if code, body := get(); code != 200 || body != "ok\n" {
		t.Fatalf("after unregister: %d %q", code, body)
	}
}
