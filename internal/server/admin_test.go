package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"disksig/internal/fleet"
	"disksig/internal/monitor"
	"disksig/internal/persist"
)

// postJSON POSTs v as JSON and returns the status and decoded answer.
func postJSON(t *testing.T, url string, v any) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeJSON(t, resp.Body)
}

// exportImage asks a node for the bootstrap image of serials.
func exportImage(t *testing.T, url string, serials ...string) []byte {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"serials": serials})
	resp, err := http.Post(url+"/v1/admin/export", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != persist.BootstrapContentType {
		t.Fatalf("export Content-Type %q", ct)
	}
	img, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// postImport posts an image to a node's import endpoint.
func postImport(t *testing.T, url string, img []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/admin/import", persist.BootstrapContentType, bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeJSON(t, resp.Body)
}

// getSerials lists a node's serials over GET /v1/admin/serials.
func getSerials(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url + "/v1/admin/serials")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Serials []string `json:"serials"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Serials
}

// TestTransferHandoff walks the whole handoff plane HTTP-level: list a
// populated node's serials, export a subset of them, import the image
// on an empty node, verify the drives answer on the target, refuse a
// re-import, then drop them from the source.
func TestTransferHandoff(t *testing.T) {
	mcfg := monitor.Config{Smoothing: 1}
	src := testServer(t, fleet.Config{Shards: 4, Monitor: mcfg}, Config{})
	dst := testServer(t, fleet.Config{Shards: 2, Monitor: mcfg}, Config{})
	tsSrc := httptest.NewServer(src.Handler())
	defer tsSrc.Close()
	tsDst := httptest.NewServer(dst.Handler())
	defer tsDst.Close()

	if got := getSerials(t, tsDst.URL); got == nil || len(got) != 0 {
		t.Fatalf("empty node lists %#v, want []", got)
	}
	body := ingestBody(t,
		[3]any{"SER-1", 0, 0.9},
		[3]any{"SER-1", 1, 0.8},
		[3]any{"SER-2", 0, 0.9},
		[3]any{"SER-3", 0, 0.9},
	)
	resp, err := http.Post(tsSrc.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, want := getSerials(t, tsSrc.URL), []string{"SER-1", "SER-2", "SER-3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("source lists %v, want %v", got, want)
	}

	// The image holds exactly the named drives the node has, under the
	// node's model set.
	img := exportImage(t, tsSrc.URL, "SER-1", "SER-2", "SER-GONE")
	st, _, _, err := persist.DecodeBootstrap(img)
	if err != nil {
		t.Fatalf("exported image does not decode: %v", err)
	}
	if len(st.Drives) != 2 || st.Drives[0].Serial != "SER-1" || st.Drives[1].Serial != "SER-2" {
		t.Fatalf("exported %+v, want SER-1 and SER-2", st.Drives)
	}
	if !reflect.DeepEqual(st.ModelSet(), src.store.ModelSet()) {
		t.Fatal("exported image does not carry the source's model set")
	}

	code, doc := postImport(t, tsDst.URL, img)
	if code != http.StatusOK {
		t.Fatalf("import status %d: %v", code, doc)
	}
	if doc["imported"].(float64) != 2 || int(doc["bytes"].(float64)) != len(img) {
		t.Fatalf("import answer %v, want 2 drives of %d bytes", doc, len(img))
	}
	resp, err = http.Get(tsDst.URL + "/v1/drives/SER-1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("moved drive status %d", resp.StatusCode)
	}
	doc = decodeJSON(t, resp.Body)
	resp.Body.Close()
	if doc["last_hour"].(float64) != 1 {
		t.Fatalf("moved drive last_hour %v, want 1", doc["last_hour"])
	}
	if got, want := getSerials(t, tsDst.URL), []string{"SER-1", "SER-2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("target lists %v, want %v", got, want)
	}

	// A re-import conflicts on the drives it already landed.
	if code, doc := postImport(t, tsDst.URL, img); code != http.StatusConflict || doc["imported"].(float64) != 0 {
		t.Fatalf("re-import status %d: %v, want 409 importing nothing", code, doc)
	}

	// Drop from the source; the drive must stop answering there.
	code, doc = postJSON(t, tsSrc.URL+"/v1/admin/drop", map[string]any{"serials": []string{"SER-1", "SER-2", "SER-GONE"}})
	if code != http.StatusOK || int(doc["dropped"].(float64)) != 2 || int(doc["requested"].(float64)) != 3 {
		t.Fatalf("drop = %d %v, want dropped 2 of 3", code, doc)
	}
	resp, _ = http.Get(tsSrc.URL + "/v1/drives/SER-1")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dropped drive still answers %d on source", resp.StatusCode)
	}
	resp.Body.Close()
	if got, want := getSerials(t, tsSrc.URL), []string{"SER-3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("source lists %v after drop, want %v", got, want)
	}
}

// TestTransferRefusals covers every refusal of the handoff plane: an
// oversize, corrupt or non-image import, and a malformed or empty
// export list or drop body. None of them may change the node.
func TestTransferRefusals(t *testing.T) {
	src := testServer(t, fleet.Config{Shards: 2}, Config{})
	tsSrc := httptest.NewServer(src.Handler())
	defer tsSrc.Close()
	resp, err := http.Post(tsSrc.URL+"/v1/ingest", "application/json",
		bytes.NewReader(ingestBody(t, [3]any{"SER-1", 0, 0.9}, [3]any{"SER-2", 0, 0.9})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	img := exportImage(t, tsSrc.URL, "SER-1", "SER-2")

	dst := testServer(t, fleet.Config{Shards: 2}, Config{})
	ts := httptest.NewServer(dst.Handler())
	defer ts.Close()
	importsNothing := func(what string, code, want int) {
		t.Helper()
		if code != want {
			t.Fatalf("%s: status %d, want %d", what, code, want)
		}
		if got := dst.store.Serials(); len(got) != 0 {
			t.Fatalf("%s imported %v", what, got)
		}
	}

	// An image declared past the cap is refused before it is read.
	req := httptest.NewRequest("POST", "/v1/admin/import", bytes.NewReader(img))
	req.ContentLength = maxImportBytes + 1
	rec := httptest.NewRecorder()
	dst.Handler().ServeHTTP(rec, req)
	importsNothing("oversize import", rec.Code, http.StatusRequestEntityTooLarge)

	// One flipped byte anywhere fails the container's checksum (or its
	// magic or length) before any drive lands.
	for _, at := range []int{0, 8, len(img) / 2, len(img) - 1} {
		bad := append([]byte(nil), img...)
		bad[at] ^= 0x40
		code, _ := postImport(t, ts.URL, bad)
		importsNothing("flipped byte", code, http.StatusBadRequest)
	}
	code, _ := postImport(t, ts.URL, []byte("not a bootstrap image"))
	importsNothing("garbage import", code, http.StatusBadRequest)

	// The intact image still imports after the refusals.
	if code, doc := postImport(t, ts.URL, img); code != http.StatusOK || doc["imported"].(float64) != 2 {
		t.Fatalf("intact import status %d: %v", code, doc)
	}

	// Export needs a list naming drives; drop reads an empty list as a
	// no-op. Every malformed body is a 400 on both.
	for _, tc := range []struct {
		body string
		drop int
	}{
		{`{"serials":[]}`, http.StatusOK},
		{`{}`, http.StatusOK},
		{`{"serials":"SER-1"}`, http.StatusBadRequest},
		{`{"nope":1}`, http.StatusBadRequest},
		{`[`, http.StatusBadRequest},
	} {
		for path, want := range map[string]int{"/v1/admin/export": http.StatusBadRequest, "/v1/admin/drop": tc.drop} {
			resp, err := http.Post(tsSrc.URL+path, "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Fatalf("%s %s: status %d, want %d", path, tc.body, resp.StatusCode, want)
			}
		}
	}
	if got := src.store.Serials(); len(got) != 2 {
		t.Fatalf("refused requests changed the source: %v", got)
	}
}
