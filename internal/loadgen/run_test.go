package loadgen

import (
	"context"
	"errors"
	"net/http"
	"os"
	"testing"

	"disksig/internal/server"
)

// TestScenarioFailedCheckCleansUp ends a scenario body on a failed
// check after it started a server and took a scratch state directory:
// the runner must record the check, and by the time it returns the
// server must refuse connections and the directory must be gone.
func TestScenarioFailedCheckCleansUp(t *testing.T) {
	var url, dir string
	rep, err := scenario(context.Background(), "cleanup", testDeployment(t), ScenarioConfig{}, func(r *run) error {
		h, err := r.serve(nil, server.Config{})
		if err != nil {
			return err
		}
		url = h.URL
		if dir, err = r.dir(""); err != nil {
			return err
		}
		return fail("probe", errors.New("boom"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed || len(rep.Checks) != 1 || rep.Checks[0].Name != "probe" || rep.Checks[0].Detail != "boom" {
		t.Fatalf("report = %+v, want one failed probe check", rep)
	}
	if resp, err := http.Get(url + "/healthz"); err == nil {
		resp.Body.Close()
		t.Fatalf("%s still serves after the scenario returned", url)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("scratch state dir %s survived the scenario: %v", dir, err)
	}
}
