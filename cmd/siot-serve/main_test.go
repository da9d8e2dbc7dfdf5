package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"siot/internal/faultfs"
	"siot/internal/serve"
)

// startServer builds a small engine with a journal in a temp dir and mounts
// the HTTP handler on an httptest server.
func startServer(t *testing.T) (*httptest.Server, *serve.Engine, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "trust.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	e, err := serve.New(serve.Config{
		Net: "twitter", Seed: 7, Seeded: true, EpochEvery: 4, Journal: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(e, time.Second))
	t.Cleanup(srv.Close)
	return srv, e, path
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// TestServeHTTP drives the full API surface end to end — health, ingest
// over both endpoints, a trust query, stats — then shuts the engine down
// and replays the journal it wrote.
func TestServeHTTP(t *testing.T) {
	srv, e, path := startServer(t)

	resp := getJSON(t, srv.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Ingest one observation and one recommendation along a real edge.
	obs := map[string]any{
		"trustor": 0, "trustee": int(firstNeighbor(e)), "type": 0,
		"success": true, "gain": 0.8, "damage": 0.1, "cost": 0.05,
	}
	postJSON(t, srv.URL+"/observe", obs, http.StatusAccepted)
	rec := map[string]any{
		"trustor": 0, "trustee": int(firstNeighbor(e)), "type": 1,
		"s": 0.9, "g": 0.7, "d": 0.1, "c": 0.1,
	}
	postJSON(t, srv.URL+"/recommend", rec, http.StatusAccepted)

	var tr trustResponse
	resp = getJSON(t, srv.URL+"/trust?trustor=0&trustee=5&type=0", &tr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trust: %d", resp.StatusCode)
	}
	if len(tr.TWBits) != 16 {
		t.Fatalf("tw_bits %q is not a 16-digit hex float", tr.TWBits)
	}

	// Bad requests: non-integer parameter, out-of-range ids, non-neighbors.
	for _, u := range []string{
		"/trust?trustor=x&trustee=1&type=0",
		"/trust?trustor=-1&trustee=1&type=0",
		"/trust?trustor=0&trustee=1&type=9999",
	} {
		if resp := getJSON(t, srv.URL+u, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", u, resp.StatusCode)
		}
	}
	postJSON(t, srv.URL+"/observe", map[string]any{"trustor": 0, "trustee": 0}, http.StatusBadRequest)

	var st serve.Stats
	getJSON(t, srv.URL+"/stats", &st)
	if st.Ingested != 2 {
		t.Fatalf("stats ingested = %d, want 2", st.Ingested)
	}
	if st.Queries == 0 {
		t.Fatal("stats queries = 0")
	}

	srv.Close()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rs, err := serve.Replay(f)
	if err != nil {
		t.Fatalf("replay of the served journal: %v", err)
	}
	if rs.Events != 2 || rs.Queries == 0 {
		t.Fatalf("replay stats %+v: want 2 events and some queries", rs)
	}

	// The engine is closed: queries must report ErrClosed, not hang.
	if _, err := e.Trust(0, 5, 0); err != serve.ErrClosed {
		t.Fatalf("Trust after Close: %v, want ErrClosed", err)
	}
}

func firstNeighbor(e *serve.Engine) int32 {
	return int32(e.Neighbors(0)[0])
}

func postJSON(t *testing.T, url string, body any, wantStatus int) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
}

// TestStatusFor pins the engine-error → HTTP status mapping, including the
// Retry-After header that rides along with every 429.
func TestStatusFor(t *testing.T) {
	cases := []struct {
		err        error
		status     int
		retryAfter bool
	}{
		{serve.ErrOverloaded, http.StatusTooManyRequests, true},
		{fmt.Errorf("wrapped: %w", serve.ErrOverloaded), http.StatusTooManyRequests, true},
		{serve.ErrClosed, http.StatusServiceUnavailable, false},
		{serve.ErrDegraded, http.StatusServiceUnavailable, false},
		{fmt.Errorf("%w: fsync: boom", serve.ErrDegraded), http.StatusServiceUnavailable, false},
		{errors.New("trustee 9 is not a neighbor"), http.StatusBadRequest, false},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.status {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.status)
		}
		rec := httptest.NewRecorder()
		httpError(rec, statusFor(tc.err), tc.err)
		if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
			t.Errorf("%v: Retry-After present = %v, want %v", tc.err, got, tc.retryAfter)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Errorf("%v: error body %q not a JSON error object (%v)", tc.err, rec.Body.String(), err)
		}
	}
}

// TestStatsKeys pins the /stats JSON contract: every documented counter key
// is present, and the durability counters carry sane values on a live
// engine.
func TestStatsKeys(t *testing.T) {
	srv, e, _ := startServer(t)
	defer e.Close()
	postJSON(t, srv.URL+"/observe", map[string]any{
		"trustor": 0, "trustee": int(firstNeighbor(e)), "type": 0,
		"success": true, "gain": 0.5, "damage": 0.1, "cost": 0.1,
	}, http.StatusAccepted)
	getJSON(t, srv.URL+"/trust?trustor=0&trustee=5&type=0", nil)

	var raw map[string]json.RawMessage
	getJSON(t, srv.URL+"/stats", &raw)
	for _, key := range []string{
		"ingested", "applied", "queries", "epochs",
		"query_p50_ns", "query_p99_ns",
		"queue_depth", "shed_total", "fsync_p99_ns",
		"recovered_events", "epoch_staleness_ms", "degraded",
		"republish_p50_ns", "republish_p99_ns", "epoch_rows_recaptured",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/stats is missing key %q", key)
		}
	}
	var st serve.Stats
	getJSON(t, srv.URL+"/stats", &st)
	if st.Degraded {
		t.Error("healthy engine reports degraded")
	}
	if st.ShedTotal != 0 || st.RecoveredEvents != 0 {
		t.Errorf("fresh engine: shed=%d recovered=%d, want 0, 0", st.ShedTotal, st.RecoveredEvents)
	}
	if st.EpochStalenessMs < 0 {
		t.Errorf("epoch_staleness_ms = %d is negative", st.EpochStalenessMs)
	}
	if st.FsyncP99Ns == 0 {
		t.Error("fsync_p99_ns = 0 after a journaled batch in the default batch mode")
	}
}

// TestIngestShedsOver429 drives backpressure end to end through the HTTP
// layer: with a stalled journal disk and a one-slot queue, an ingest
// request that cannot be admitted within the handler's timeout is shed with
// 429 and Retry-After, and the engine recovers once the disk does.
func TestIngestShedsOver429(t *testing.T) {
	jf := faultfs.NewFile(nil)
	e, err := serve.New(serve.Config{
		Net: "twitter", Seed: 7, Seeded: true,
		EpochEvery: 1 << 30, QueueSize: 1, BatchSize: 1, Journal: jf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	release := jf.StallSyncs()
	defer release()
	srv := httptest.NewServer(newHandler(e, 25*time.Millisecond))
	defer srv.Close()

	nb := int(firstNeighbor(e))
	obs := map[string]any{
		"trustor": 0, "trustee": nb, "type": 0,
		"success": true, "gain": 0.5, "damage": 0.1, "cost": 0.1,
	}
	b, _ := json.Marshal(obs)

	// Acks are durability promises, so posts admitted while the disk is
	// stalled block until release: fire fillers in goroutines until one
	// event sits in the writer and another fills the one-slot queue. A
	// filler that loses the admission race sheds with 429 and retries.
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := http.Post(srv.URL+"/observe", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Error(err)
					return
				}
				code := resp.StatusCode
				resp.Body.Close()
				switch code {
				case http.StatusAccepted:
					return
				case http.StatusTooManyRequests:
					continue
				default:
					t.Errorf("filler post: status %d", code)
					return
				}
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().QueueDepth < 1 {
		if time.Now().After(deadline) {
			t.Fatal("ingest queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is full and nothing can drain: this post must shed.
	resp, err := http.Post(srv.URL+"/observe", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post against a full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var st serve.Stats
	getJSON(t, srv.URL+"/stats", &st)
	if st.ShedTotal == 0 {
		t.Fatal("shed_total = 0 after a 429")
	}
	// Queries are unaffected by ingest backpressure.
	if resp := getJSON(t, srv.URL+"/trust?trustor=0&trustee=5&type=0", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("trust during backpressure: %d", resp.StatusCode)
	}

	release()
	wg.Wait()
	postJSON(t, srv.URL+"/observe", obs, http.StatusAccepted)
}

// TestTrustParamErrors pins the error body shape.
func TestTrustParamErrors(t *testing.T) {
	srv, e, _ := startServer(t)
	defer e.Close()
	resp, err := http.Get(srv.URL + "/trust?trustor=zero&trustee=1&type=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "trustor") {
		t.Fatalf("error body %q does not name the bad parameter", body["error"])
	}
}

// TestIngestBodyBounds pins the POST body rules on both ingest endpoints:
// a well-formed event is accepted, an oversized body is refused with 413,
// and unknown fields, malformed JSON and trailing data with 400.
func TestIngestBodyBounds(t *testing.T) {
	srv, e, _ := startServer(t)
	defer e.Close()
	nb := int(firstNeighbor(e))
	valid := map[string]string{
		"/observe":   fmt.Sprintf(`{"trustor":0,"trustee":%d,"type":0,"success":true,"gain":0.5,"damage":0.1,"cost":0.1}`, nb),
		"/recommend": fmt.Sprintf(`{"trustor":0,"trustee":%d,"type":1,"s":0.9,"g":0.7,"d":0.1,"c":0.1}`, nb),
	}
	for path, body := range valid {
		for _, tc := range []struct {
			name   string
			body   string
			status int
		}{
			{"valid", body, http.StatusAccepted},
			{"oversized", `{"trustor":0,"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
			{"oversized whitespace", body + strings.Repeat(" ", maxBodyBytes), http.StatusRequestEntityTooLarge},
			{"unknown field", strings.Replace(body, `"type"`, `"kind":3,"type"`, 1), http.StatusBadRequest},
			{"malformed", body[:len(body)/2], http.StatusBadRequest},
			{"trailing value", body + body, http.StatusBadRequest},
			{"wrong type", strings.Replace(body, `"trustor":0`, `"trustor":"zero"`, 1), http.StatusBadRequest},
		} {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("POST %s %s: status %d, want %d", path, tc.name, resp.StatusCode, tc.status)
			}
		}
	}
}

// FuzzHandler drives the HTTP API with fuzzed /trust query strings and
// /observe and /recommend bodies. Whatever arrives, the handler must answer
// with one of the statuses the API documents — 200 or 202 for a served or
// accepted request, 400 or 413 for a bad one, 429 or 503 when the engine
// cannot take it — and never panic.
func FuzzHandler(f *testing.F) {
	e, err := serve.New(serve.Config{Net: "twitter", Seed: 7, Seeded: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.Close() })
	h := newHandler(e, 50*time.Millisecond)
	nb := firstNeighbor(e)
	f.Add(uint8(0), "trustor=0&trustee=1&type=0", []byte(nil))
	f.Add(uint8(0), "trustor=-1&trustee=99999999999&type=x", []byte(nil))
	f.Add(uint8(0), "trustor=0&trustor=1&trustee=%zz&type=-3", []byte(nil))
	f.Add(uint8(1), "", []byte(fmt.Sprintf(`{"trustor":0,"trustee":%d,"type":0,"success":true,"gain":0.5,"damage":0.1,"cost":0.1}`, nb)))
	f.Add(uint8(1), "", []byte(`{"trustor":0,"trustee":0,"type":0,"gain":-1}`))
	f.Add(uint8(1), "", []byte(`{"trustor":0,"trustee":1,"type":1e400}`))
	f.Add(uint8(2), "", []byte(fmt.Sprintf(`{"trustor":0,"trustee":%d,"type":1,"s":0.9,"g":0.7,"d":0.1,"c":0.1}`, nb)))
	f.Add(uint8(2), "", []byte(`{"trustor":0,"trustee":1,"type":1,"s":2}{}`))
	f.Add(uint8(2), "", []byte(`[`))

	f.Fuzz(func(t *testing.T, route uint8, query string, body []byte) {
		var req *http.Request
		switch route % 3 {
		case 0:
			req = httptest.NewRequest(http.MethodGet, "/trust", nil)
			req.URL.RawQuery = query
		case 1:
			req = httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(body))
		case 2:
			req = httptest.NewRequest(http.MethodPost, "/recommend", bytes.NewReader(body))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("%s %s?%s: status %d, body %q", req.Method, req.URL.Path, query, rec.Code, rec.Body.String())
		}
	})
}

// TestServerBounds pins the per-connection time bounds of the listener.
func TestServerBounds(t *testing.T) {
	srv := newServer("127.0.0.1:0", http.NotFoundHandler())
	for name, got := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if got <= 0 {
			t.Errorf("%s = %v, want a positive bound", name, got)
		}
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("ReadHeaderTimeout %v exceeds ReadTimeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
}

// runMain runs siot-serve's main with args in a child process of the test
// binary, which re-enters the test named name; that test hands the
// arguments to main through asChild. It returns the child's exit status
// and stderr.
func runMain(t *testing.T, name string, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-test.run=^" + name + "$", "--"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatalf("siot-serve %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// asChild runs main with the arguments after "--" when runMain started the
// test binary, and exits 0 if main returns.
func asChild() {
	if i := slices.Index(os.Args, "--"); i >= 0 {
		os.Args = append([]string{"siot-serve"}, os.Args[i+1:]...)
		main()
		os.Exit(0)
	}
}

// TestUnbuildableNetworkIsUsageError: a -nodes count socialgen cannot build
// must exit 2 with the profile error, not panic (which would also exit 2,
// hence the stderr check).
func TestUnbuildableNetworkIsUsageError(t *testing.T) {
	asChild()
	for _, nodes := range []string{"3", "1"} {
		code, stderr := runMain(t, "TestUnbuildableNetworkIsUsageError", "-nodes", nodes, "-addr", "127.0.0.1:0")
		if code != 2 {
			t.Fatalf("-nodes %s: exit status %d, want 2; stderr:\n%s", nodes, code, stderr)
		}
		if !strings.Contains(stderr, "invalid profile") || strings.Contains(stderr, "panic") {
			t.Fatalf("-nodes %s: stderr %q, want the profile error and no panic", nodes, stderr)
		}
	}
}

// TestJournalEntrance: a config serve.New would reject, or a negative
// -nodes, -epoch-interval or -ingest-timeout (the help text gives meaning
// only to 0), exits 2 before -journal is created, and a journal that fails
// on a well-formed invocation is a runtime failure, exit 1.
func TestJournalEntrance(t *testing.T) {
	asChild()
	for _, tc := range []struct {
		flag, value, want string
	}{
		{"-theta", "NaN", "not finite"},
		{"-nodes", "-5", "node count -5 is negative"},
		{"-epoch-interval", "-1s", "epoch interval -1s is negative"},
		{"-ingest-timeout", "-1s", "-ingest-timeout -1s is negative"},
	} {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		code, stderr := runMain(t, "TestJournalEntrance", tc.flag, tc.value, "-journal", path, "-addr", "127.0.0.1:0")
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Fatalf("%s %s: exit status %d, want 2; stderr:\n%s", tc.flag, tc.value, code, stderr)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s %s left %s behind (stat: %v)", tc.flag, tc.value, path, err)
		}
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	code, stderr := runMain(t, "TestJournalEntrance", "-net", "twitter", "-journal", "/dev/full", "-addr", "127.0.0.1:0")
	if code != 1 || !strings.Contains(stderr, "no space left on device") {
		t.Fatalf("-journal /dev/full: exit status %d, want 1; stderr:\n%s", code, stderr)
	}
}
