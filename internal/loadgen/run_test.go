package loadgen

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"testing"
	"time"

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

// TestScenarioCleanupClosesSpareConnection leaves the run's client
// holding a connection it dialed but never sent a request on — what a
// transport does when a dial loses the race to a connection freed by
// another request — and requires the scenario's clean-up to stop the
// server promptly. http.Server.Shutdown counts such a connection as
// active until it is 5 s old, so a clean-up that stops the server with
// the connection still open stalls that long.
func TestScenarioCleanupClosesSpareConnection(t *testing.T) {
	var bodyDone time.Time
	_, err := scenario(context.Background(), "spare-conn", testDeployment(t), ScenarioConfig{}, func(r *run) error {
		h, err := r.serve(nil, server.Config{})
		if err != nil {
			return err
		}
		client := r.drv.client()
		tr := client.Transport.(*http.Transport)
		var dials atomic.Int32
		release, dialed := make(chan struct{}), make(chan struct{})
		tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			if dials.Add(1) == 2 {
				<-release
				defer close(dialed)
			}
			return (&net.Dialer{}).DialContext(ctx, network, addr)
		}
		// Request A holds the first connection while its body streams.
		pr, pw := io.Pipe()
		doneA := make(chan error, 1)
		go func() {
			resp, err := client.Post(h.URL+"/v1/ingest", "application/json", pr)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			doneA <- err
		}()
		if _, err := pw.Write([]byte(`{"records":`)); err != nil {
			return err
		}
		// Request B finds no idle connection and dials a second one,
		// which the gate holds back.
		doneB := make(chan error, 1)
		go func() {
			resp, err := client.Get(h.URL + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			doneB <- err
		}()
		for dials.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		// A finishes, B takes the freed connection, and then the second
		// dial completes into the idle pool, never used.
		pw.Write([]byte(`[]}`))
		pw.Close()
		if err := <-doneA; err != nil {
			return err
		}
		if err := <-doneB; err != nil {
			return err
		}
		close(release)
		<-dialed
		// Give the server time to accept the spare connection.
		time.Sleep(100 * time.Millisecond)
		bodyDone = time.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(bodyDone); took > 2*time.Second {
		t.Fatalf("scenario clean-up took %v: a spare client connection held the server's shutdown", took)
	}
}
